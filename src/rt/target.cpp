#include "rt/target.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rt/symtab.hpp"

namespace gmdf::rt {

namespace {

/// A cleared spare buffer, or an empty one when none is left.
template <class T> std::vector<T> take_spare(std::vector<std::vector<T>>& spares) {
    if (spares.empty()) return {};
    std::vector<T> v = std::move(spares.back());
    spares.pop_back();
    return v;
}

/// Keeps `v`'s storage for a later op; a buffer that moved on to
/// another op has none left to keep.
template <class T> void keep_spare(std::vector<std::vector<T>>& spares, std::vector<T>& v) {
    if (v.capacity() == 0) return;
    v.clear();
    spares.push_back(std::move(v));
}

} // namespace

int SignalStore::add(const std::string& name, double init) {
    auto it = name_lower_bound(by_name_, name);
    if (it != by_name_.end() && it->first == name)
        throw std::invalid_argument("duplicate signal '" + name + "'");
    int idx = static_cast<int>(names_.size());
    names_.push_back(name);
    init_.push_back(init);
    by_name_.emplace(it, name, idx);
    return idx;
}

int SignalStore::index_of(std::string_view name) const {
    auto it = name_lower_bound(by_name_, name);
    return it == by_name_.end() || it->first != name ? -1 : it->second;
}

void TaskContext::send_debug(std::span<const std::uint8_t> bytes) {
    instr_cycles_ += uart_cycles_per_frame_ +
                     uart_cycles_per_byte_ * static_cast<std::uint64_t>(bytes.size());
    debug_bytes_.insert(debug_bytes_.end(), bytes.begin(), bytes.end());
}

void TaskContext::poke_u32(std::uint32_t addr, std::uint32_t value) {
    pokes_.emplace_back(addr, value);
}

Node::Node(Target& target, int id, double clock_hz)
    : target_(&target), id_(id), clock_hz_(clock_hz) {}

void Node::add_task(TaskConfig cfg, std::unique_ptr<TaskBody> body) {
    if (cfg.period <= 0) throw std::invalid_argument("task period must be positive");
    if (cfg.deadline == 0) cfg.deadline = cfg.period;
    if (cfg.deadline < 0 || cfg.deadline > cfg.period)
        throw std::invalid_argument("task deadline must be in (0, period]");
    auto task = std::make_unique<Task>();
    task->cfg = std::move(cfg);
    task->body = std::move(body);
    task->in_latch.resize(task->cfg.input_signals.size());
    task->index = tasks_.size();
    tasks_.push_back(std::move(task));
}

void Node::publish_signal(int index, double value) {
    set_local_signal(index, value);
    target_->broadcast(id_, index, value);
}

void Node::map_signal_memory(int sig_index, std::uint32_t addr) {
    signal_memory_[sig_index] = addr;
}

const TaskStats& Node::task_stats(std::string_view task_name) const {
    for (const auto& t : tasks_)
        if (t->cfg.name == task_name) return t->stats;
    throw std::out_of_range("no task '" + std::string(task_name) + "' on node " +
                            std::to_string(id_));
}

double Node::cpu_utilization(SimTime elapsed) const {
    return elapsed <= 0 ? 0.0
                        : static_cast<double>(busy_ns_) / static_cast<double>(elapsed);
}

void Node::start_tasks() {
    local_signals_.resize(target_->signals_.size());
    for (std::size_t i = 0; i < local_signals_.size(); ++i)
        set_local_signal(static_cast<int>(i), target_->signals_.init(static_cast<int>(i)));
    for (auto& task : tasks_) {
        Task* t = task.get();
        target_->sim_.every(t->cfg.offset == 0 ? t->cfg.period : t->cfg.offset,
                            t->cfg.period, [this, t] { on_release(*t); });
    }
}

void Node::on_release(Task& task) {
    if (target_->paused_) {
        bool matches = target_->single_step_ &&
                       (target_->step_filter_.empty() ||
                        target_->step_filter_ == task.cfg.name);
        if (!matches) {
            ++task.stats.suppressed;
            return;
        }
        target_->single_step_ = false; // consume the single-step budget
    }
    if (task.job_pending) {
        ++task.stats.overruns;
        return;
    }
    ++task.stats.releases;
    task.job_pending = true;
    // Input latch: copy the signal replica at the release instant.
    for (std::size_t i = 0; i < task.cfg.input_signals.size(); ++i)
        task.in_latch[i] = local_signals_[static_cast<std::size_t>(task.cfg.input_signals[i])];
    ready_.push_back({&task, target_->sim_.now(), job_seq_++});
    if (!cpu_busy_) start_next_job();
}

void Node::start_next_job() {
    if (ready_.empty()) {
        cpu_busy_ = false;
        return;
    }
    // Non-preemptive fixed priority: pick the most urgent ready job
    // (lowest priority value), FIFO within a priority level.
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready_.size(); ++i) {
        if (ready_[i].task->cfg.priority < ready_[best].task->cfg.priority) best = i;
    }
    ReadyJob job = ready_[best];
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(best));
    cpu_busy_ = true;

    Task& task = *job.task;
    Target& target = *target_;
    // Each job owns its output buffer until its deadline latch fires: a
    // deferred latch of job k must not be clobbered by job k+1 executing
    // before it fires. The job's buffers are the target's spares.
    std::vector<double> job_out = take_spare(target.spare_out_);
    job_out.assign(task.cfg.output_signals.size(), 0.0);
    TaskContext ctx;
    ctx.in_ = task.in_latch;
    ctx.out_ = job_out;
    ctx.dt_ = static_cast<double>(task.cfg.period) / static_cast<double>(kSec);
    ctx.debug_bytes_ = take_spare(target.spare_bytes_);
    ctx.pokes_ = take_spare(target.spare_pokes_);
    ctx.uart_cycles_per_byte_ = target.uart_.cycles_per_byte;
    ctx.uart_cycles_per_frame_ = target.uart_.cycles_per_frame;

    std::uint64_t app = task.body->execute(ctx);
    app_cycles_ += app;
    instr_cycles_ += ctx.instr_cycles_;

    std::uint64_t total_cycles = app + ctx.instr_cycles_;
    auto duration = static_cast<SimTime>(
        std::ceil(static_cast<double>(total_cycles) / clock_hz_ * static_cast<double>(kSec)));
    busy_ns_ += static_cast<std::uint64_t>(duration);

    SimTime completion = target.sim_.now() + duration;
    // Completion applies memory pokes, emits debug bytes, and hands the
    // outputs to the latch policy. Scheduled as a typed pending op so a
    // checkpoint can serialize the in-flight job.
    Target::PendingOp op;
    op.kind = Target::PendingOp::Kind::JobComplete;
    op.node = id_;
    op.task = task.index;
    op.release = job.release;
    op.out = std::move(job_out);
    op.pokes = std::move(ctx.pokes_);
    op.bytes = std::move(ctx.debug_bytes_);
    target.schedule_op(completion, std::move(op));
}

void Node::complete_job(std::size_t task_index, SimTime release, std::vector<double>& out,
                        const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pokes,
                        std::vector<std::uint8_t>& bytes) {
    for (auto [addr, value] : pokes) memory_.write_u32(addr, value);
    if (!bytes.empty()) {
        // Serialized UART wire: 10 bits per byte (8N1 framing).
        SimTime start = std::max(target_->sim_.now(), uart_busy_until_);
        auto wire_ns = static_cast<SimTime>(
            static_cast<double>(bytes.size()) * 10.0 / target_->uart_.baud *
            static_cast<double>(kSec));
        uart_busy_until_ = start + wire_ns;
        target_->deliver_debug(id_, bytes, uart_busy_until_);
    }
    finish_job(*tasks_[task_index], release, out);
    start_next_job();
}

void Node::finish_job(Task& task, SimTime release, std::vector<double>& out) {
    SimTime now = target_->sim_.now();
    ++task.stats.completions;
    task.stats.worst_response = std::max(task.stats.worst_response, now - release);
    task.job_pending = false;

    SimTime deadline_at = release + task.cfg.deadline;
    if (target_->mode_ == OutputMode::Immediate) {
        latch_outputs(task, release, out);
        return;
    }
    if (now > deadline_at) {
        ++task.stats.deadline_misses;
        latch_outputs(task, release, out); // late latch, recorded as a miss
        return;
    }
    // Timed multitasking: defer the output latch to the deadline instant.
    Target::PendingOp op;
    op.kind = Target::PendingOp::Kind::OutputLatch;
    op.node = id_;
    op.task = task.index;
    op.release = release;
    op.out = std::move(out);
    target_->schedule_op(deadline_at, std::move(op));
}

void Node::latch_outputs(Task& task, SimTime release, const std::vector<double>& out) {
    SimTime now = target_->sim_.now();
    task.stats.output_offsets.add(now - release);
    for (std::size_t i = 0; i < task.cfg.output_signals.size(); ++i)
        publish_signal(task.cfg.output_signals[i], out[i]);
}

void Node::save_state(StateWriter& w) const {
    memory_.save_state(w);
    w.doubles(local_signals_);
    w.b(cpu_busy_);
    w.u64(job_seq_);
    w.u64(app_cycles_);
    w.u64(instr_cycles_);
    w.u64(busy_ns_);
    w.i64(uart_busy_until_);
    w.size(ready_.size());
    for (const ReadyJob& j : ready_) {
        w.size(j.task->index);
        w.i64(j.release);
        w.u64(j.seq);
    }
    w.size(tasks_.size());
    for (const auto& t : tasks_) {
        w.doubles(t->in_latch);
        w.b(t->job_pending);
        const TaskStats& s = t->stats;
        w.u64(s.releases);
        w.u64(s.completions);
        w.u64(s.overruns);
        w.u64(s.deadline_misses);
        w.u64(s.suppressed);
        w.i64(s.worst_response);
        w.u64(s.output_offsets.count);
        w.i64(s.output_offsets.min);
        w.i64(s.output_offsets.max);
        w.i64(s.output_offsets.sum);
        body_state_.clear();
        t->body->save_state(body_state_);
        w.doubles(body_state_);
    }
}

void Node::load_state(StateReader& r) {
    memory_.load_state(r);
    r.doubles(local_signals_);
    cpu_busy_ = r.b();
    job_seq_ = r.u64();
    app_cycles_ = r.u64();
    instr_cycles_ = r.u64();
    busy_ns_ = r.u64();
    uart_busy_until_ = r.i64();
    ready_.clear();
    std::size_t n_ready = r.size();
    for (std::size_t i = 0; i < n_ready; ++i) {
        std::size_t task_index = r.size();
        SimTime release = r.i64();
        std::uint64_t seq = r.u64();
        if (task_index >= tasks_.size())
            throw std::runtime_error("snapshot ready-queue names an unknown task");
        ready_.push_back({tasks_[task_index].get(), release, seq});
    }
    std::size_t n_tasks = r.size();
    if (n_tasks != tasks_.size())
        throw std::runtime_error("snapshot task count does not match this node");
    for (auto& t : tasks_) {
        r.doubles(t->in_latch);
        t->job_pending = r.b();
        TaskStats& s = t->stats;
        s.releases = r.u64();
        s.completions = r.u64();
        s.overruns = r.u64();
        s.deadline_misses = r.u64();
        s.suppressed = r.u64();
        s.worst_response = r.i64();
        s.output_offsets.count = r.u64();
        s.output_offsets.min = r.i64();
        s.output_offsets.max = r.i64();
        s.output_offsets.sum = r.i64();
        r.doubles(body_state_);
        std::size_t used = t->body->load_state(body_state_);
        if (used != body_state_.size())
            throw std::runtime_error("task body consumed a different state size");
    }
}

void Node::set_local_signal(int index, double value) {
    local_signals_[static_cast<std::size_t>(index)] = value;
    auto it = signal_memory_.find(index);
    if (it != signal_memory_.end())
        memory_.write_f32(it->second, static_cast<float>(value));
}

Node& Target::add_node(double clock_hz) {
    if (started_) throw std::logic_error("cannot add nodes after start()");
    nodes_.push_back(std::make_unique<Node>(*this, static_cast<int>(nodes_.size()), clock_hz));
    return *nodes_.back();
}

void Target::start() {
    if (started_) throw std::logic_error("Target::start() called twice");
    started_ = true;
    for (auto& n : nodes_) n->start_tasks();
}

void Target::run_for(SimTime duration) {
    SimTime horizon = sim_.now() + duration;
    if (fault_at_ >= 0 && fault_at_ <= horizon) {
        SimTime at = fault_at_;
        if (at > sim_.now()) sim_.run_until(at);
        fault_at_ = -1; // one-shot: a revived session runs clean
        std::string message = std::move(fault_message_);
        fault_message_.clear();
        throw std::runtime_error(message.empty() ? "injected fault" : message);
    }
    sim_.run_until(horizon);
}

std::uint64_t Target::total_instr_cycles() const {
    std::uint64_t total = 0;
    for (const auto& n : nodes_) total += n->instr_cycles();
    return total;
}

void Target::save_state(StateWriter& w) const {
    if (!started_)
        throw std::runtime_error("cannot snapshot a target before start()");
    // Live ops in id order: slots are reused, so the table's order is not
    // the order the ops were scheduled in.
    std::vector<const OpSlot*> live;
    live.reserve(ops_.size());
    for (const OpSlot& s : ops_)
        if (s.live) live.push_back(&s);
    if (sim_.pending_one_shot() != live.size())
        throw std::runtime_error(
            "one-shot simulator events pending outside the op registry "
            "(raw closures cannot be restored)");
    std::sort(live.begin(), live.end(),
              [](const OpSlot* a, const OpSlot* b) { return a->id < b->id; });
    sim_.save_state(w);
    w.b(paused_);
    w.b(single_step_);
    w.str(step_filter_);
    w.u64(next_op_);
    w.size(live.size());
    for (const OpSlot* s : live) {
        w.u64(s->id);
        w.i64(s->t);
        w.u64(s->seq);
        const PendingOp& op = s->op;
        w.u8(static_cast<std::uint8_t>(op.kind));
        w.i32(op.node);
        w.size(op.task);
        w.i64(op.release);
        w.i32(op.sig);
        w.f64(op.value);
        w.doubles(op.out);
        w.size(op.pokes.size());
        for (auto [addr, value] : op.pokes) {
            w.u32(addr);
            w.u32(value);
        }
        w.bytes(op.bytes);
    }
    w.size(nodes_.size());
    for (const auto& n : nodes_) n->save_state(w);
}

void Target::load_state(StateReader& r) {
    sim_.load_state(r);
    paused_ = r.b();
    single_step_ = r.b();
    step_filter_ = r.str();
    next_op_ = r.u64();
    ops_.clear();
    free_ops_.clear();
    std::size_t n_ops = r.size();
    for (std::size_t i = 0; i < n_ops; ++i) {
        std::uint64_t id = r.u64();
        SimTime t = r.i64();
        std::uint64_t seq = r.u64();
        PendingOp op;
        op.kind = static_cast<PendingOp::Kind>(r.u8());
        op.node = r.i32();
        op.task = r.size();
        op.release = r.i64();
        op.sig = r.i32();
        op.value = r.f64();
        op.out = take_spare(spare_out_);
        r.doubles(op.out);
        op.pokes = take_spare(spare_pokes_);
        std::size_t n_pokes = r.size();
        for (std::size_t p = 0; p < n_pokes; ++p) {
            std::uint32_t addr = r.u32();
            std::uint32_t value = r.u32();
            op.pokes.emplace_back(addr, value);
        }
        op.bytes = take_spare(spare_bytes_);
        r.bytes(op.bytes);
        schedule_op_restored(t, seq, id, std::move(op));
    }
    std::size_t n_nodes = r.size();
    if (n_nodes != nodes_.size())
        throw std::runtime_error("snapshot node count does not match this target");
    for (auto& n : nodes_) n->load_state(r);
}

void Target::broadcast(int from_node, int sig_index, double value) {
    for (auto& n : nodes_) {
        if (n->id() == from_node) continue;
        PendingOp op;
        op.kind = PendingOp::Kind::NetDeliver;
        op.node = n->id();
        op.sig = sig_index;
        op.value = value;
        schedule_op(sim_.now() + net_latency_, std::move(op));
    }
}

void Target::deliver_debug(int node_id, std::vector<std::uint8_t>& bytes, SimTime at) {
    if (!debug_sink_) return;
    PendingOp op;
    op.kind = PendingOp::Kind::DebugDeliver;
    op.node = node_id;
    op.bytes = std::move(bytes);
    schedule_op(at, std::move(op));
}

void Target::schedule_publish(SimTime at, int node, int sig_index, double value) {
    PendingOp op;
    op.kind = PendingOp::Kind::PublishSignal;
    op.node = node;
    op.sig = sig_index;
    op.value = value;
    schedule_op(at, std::move(op));
}

void Target::schedule_op(SimTime t, PendingOp op) {
    std::uint64_t id = next_op_++;
    std::uint32_t slot = next_op_slot();
    Simulator::ScheduledEvent ev = sim_.at(t, [this, slot] { run_op(slot); });
    fill_op_slot(slot, std::move(op), id, t, ev.seq);
}

void Target::schedule_op_restored(SimTime t, std::uint64_t seq, std::uint64_t id,
                                  PendingOp op) {
    std::uint32_t slot = next_op_slot();
    sim_.schedule_restored(t, seq, [this, slot] { run_op(slot); });
    fill_op_slot(slot, std::move(op), id, t, seq);
}

std::uint32_t Target::next_op_slot() const {
    return free_ops_.empty() ? static_cast<std::uint32_t>(ops_.size()) : free_ops_.back();
}

void Target::fill_op_slot(std::uint32_t slot, PendingOp&& op, std::uint64_t id, SimTime t,
                          std::uint64_t seq) {
    if (slot == ops_.size())
        ops_.emplace_back();
    else
        free_ops_.pop_back();
    OpSlot& s = ops_[slot];
    s.op = std::move(op);
    s.id = id;
    s.t = t;
    s.seq = seq;
    s.live = true;
}

void Target::run_op(std::uint32_t slot) {
    PendingOp op = std::move(ops_[slot].op);
    ops_[slot].live = false;
    free_ops_.push_back(slot);
    dispatch_op(op);
    give_back(op);
}

void Target::give_back(PendingOp& op) {
    keep_spare(spare_out_, op.out);
    keep_spare(spare_pokes_, op.pokes);
    keep_spare(spare_bytes_, op.bytes);
}

void Target::dispatch_op(PendingOp& op) {
    switch (op.kind) {
    case PendingOp::Kind::JobComplete:
        nodes_[static_cast<std::size_t>(op.node)]->complete_job(op.task, op.release, op.out,
                                                                op.pokes, op.bytes);
        break;
    case PendingOp::Kind::OutputLatch: {
        Node& n = *nodes_[static_cast<std::size_t>(op.node)];
        n.latch_outputs(*n.tasks_[op.task], op.release, op.out);
        break;
    }
    case PendingOp::Kind::NetDeliver:
        nodes_[static_cast<std::size_t>(op.node)]->set_local_signal(op.sig, op.value);
        break;
    case PendingOp::Kind::DebugDeliver:
        if (debug_sink_) debug_sink_(op.node, op.bytes, sim_.now());
        break;
    case PendingOp::Kind::PublishSignal:
        nodes_[static_cast<std::size_t>(op.node)]->publish_signal(op.sig, op.value);
        break;
    }
}

} // namespace gmdf::rt
