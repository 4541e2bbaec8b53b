#include "codegen/loader.hpp"

#include <algorithm>
#include <stdexcept>

#include "comdes/metamodel.hpp"
#include "link/framing.hpp"

namespace gmdf::codegen {

using meta::MObject;
using meta::Model;
using meta::ObjectId;

ProgramBody::ProgramBody(SubProgram program, ObjectId actor_id, InstrumentOptions opts)
    : program_(std::move(program)), actor_(actor_id), opts_(opts) {}

void ProgramBody::add_element_memory(ElementMemory em) {
    elements_.push_back(std::move(em));
}

void ProgramBody::set_output_elements(std::vector<ObjectId> ids) { out_ids_ = std::move(ids); }

void ProgramBody::reset() {
    program_.reset();
    last_out_.clear();
    first_scan_ = true;
}

void ProgramBody::save_state(std::vector<double>& out) const {
    program_.save_state(out);
    out.push_back(static_cast<double>(last_out_.size()));
    out.insert(out.end(), last_out_.begin(), last_out_.end());
    out.push_back(first_scan_ ? 1.0 : 0.0);
}

std::size_t ProgramBody::load_state(std::span<const double> in) {
    std::size_t used = program_.load_state(in);
    if (in.size() < used + 1) throw std::runtime_error("body state truncated");
    auto n_out = static_cast<std::size_t>(in[used]);
    ++used;
    if (in.size() < used + n_out + 1)
        throw std::runtime_error("body state truncated");
    last_out_.assign(in.begin() + static_cast<std::ptrdiff_t>(used),
                     in.begin() + static_cast<std::ptrdiff_t>(used + n_out));
    used += n_out;
    first_scan_ = in[used] != 0.0;
    return used + 1;
}

void ProgramBody::emit(const link::Command& cmd) {
    if (ctx_ == nullptr) return;
    frame_.clear();
    link::append_frame(frame_, link::encode_command(cmd));
    ctx_->send_debug(frame_);
}

void ProgramBody::mirror(ObjectId element, ObjectId value_id) {
    if (!opts_.memory_mirror || ctx_ == nullptr) return;
    for (const ElementMemory& em : elements_) {
        if (!(em.element == element)) continue;
        auto it = std::find(em.indexed.begin(), em.indexed.end(), value_id);
        if (it != em.indexed.end())
            ctx_->poke_u32(em.addr,
                           static_cast<std::uint32_t>(it - em.indexed.begin()));
        return;
    }
}

std::uint64_t ProgramBody::execute(rt::TaskContext& ctx) {
    ctx_ = &ctx;
    if (opts_.task_events)
        emit({link::Cmd::TaskStart, static_cast<std::uint32_t>(actor_.raw), 0, 0.0f});

    std::uint64_t cycles = program_.run(ctx.inputs(), ctx.outputs(), ctx.dt());

    if (opts_.signal_events && !out_ids_.empty()) {
        auto out = ctx.outputs();
        if (last_out_.size() != out.size()) last_out_.assign(out.size(), 0.0);
        for (std::size_t i = 0; i < out.size() && i < out_ids_.size(); ++i) {
            if (first_scan_ || out[i] != last_out_[i])
                emit({link::Cmd::SignalUpdate, static_cast<std::uint32_t>(out_ids_[i].raw), 0,
                      static_cast<float>(out[i])});
            last_out_[i] = out[i];
        }
    }
    first_scan_ = false;

    if (opts_.task_events)
        emit({link::Cmd::TaskEnd, static_cast<std::uint32_t>(actor_.raw), 0, 0.0f});
    ctx_ = nullptr;
    return cycles;
}

void ProgramBody::on_state_enter(ObjectId sm, ObjectId state) {
    if (opts_.sm_events)
        emit({link::Cmd::StateEnter, static_cast<std::uint32_t>(sm.raw),
              static_cast<std::uint32_t>(state.raw), 0.0f});
    mirror(sm, state);
}

void ProgramBody::on_transition(ObjectId sm, ObjectId transition) {
    if (opts_.sm_events)
        emit({link::Cmd::Transition, static_cast<std::uint32_t>(sm.raw),
              static_cast<std::uint32_t>(transition.raw), 0.0f});
}

void ProgramBody::on_mode_change(ObjectId modal_fb, ObjectId mode) {
    if (opts_.sm_events)
        emit({link::Cmd::ModeChange, static_cast<std::uint32_t>(modal_fb.raw),
              static_cast<std::uint32_t>(mode.raw), 0.0f});
    mirror(modal_fb, mode);
}

namespace {

/// Collects every SM and modal FB reachable inside a network (any depth)
/// and produces their RAM placement descriptors.
void collect_observables(const Model& model, const MObject& network,
                         const std::string& prefix, rt::MemoryMap& mem,
                         std::vector<ElementMemory>& out) {
    const auto& c = comdes::comdes_metamodel();
    for (ObjectId b_id : network.refs("blocks")) {
        const MObject& b = model.at(b_id);
        std::string name = prefix + b.name();
        if (b.meta_class().is_subtype_of(*c.sm_fb)) {
            ElementMemory em;
            em.element = b_id;
            em.addr = mem.alloc(name + "_state");
            for (ObjectId s_id : b.refs("states")) em.indexed.push_back(s_id);
            out.push_back(std::move(em));
        } else if (b.meta_class().is_subtype_of(*c.modal_fb)) {
            ElementMemory em;
            em.element = b_id;
            em.addr = mem.alloc(name + "_mode");
            for (ObjectId m_id : b.refs("modes")) {
                em.indexed.push_back(m_id);
                collect_observables(model, model.at(model.at(m_id).ref("network")),
                                    name + ".", mem, out);
            }
            out.push_back(std::move(em));
        } else if (b.meta_class().is_subtype_of(*c.composite_fb)) {
            collect_observables(model, model.at(b.ref("network")), name + ".", mem, out);
        }
    }
}

} // namespace

LoadedSystem load_system(rt::Target& target, const Model& model,
                         const InstrumentOptions& opts) {
    const auto& c = comdes::comdes_metamodel();
    auto systems = model.all_of(*c.system);
    if (systems.size() != 1)
        throw std::invalid_argument("load_system expects exactly one System object");
    const MObject& system = *systems[0];

    LoadedSystem loaded;

    // Signals.
    for (ObjectId s_id : system.refs("signals")) {
        const MObject& s = model.at(s_id);
        int idx = target.signals().add(s.name(), s.attr("init").as_number());
        loaded.signal_ids.push_back(s_id);
        loaded.signal_index[s_id.raw] = idx;
    }

    // Nodes: one per distinct `node` attribute value (0..max).
    std::int64_t max_node = 0;
    for (ObjectId a_id : system.refs("actors"))
        max_node = std::max(max_node, model.at(a_id).attr("node").as_int());
    while (target.node_count() <= static_cast<std::size_t>(max_node)) target.add_node();

    // Mirror every signal on every node (each node has a local replica).
    if (opts.memory_mirror) {
        for (std::size_t n = 0; n < target.node_count(); ++n) {
            rt::Node& node = target.node(static_cast<int>(n));
            for (std::size_t i = 0; i < loaded.signal_ids.size(); ++i) {
                const std::string& name =
                    target.signals().name(static_cast<int>(i));
                auto addr = node.memory().alloc(LoadedSystem::signal_symbol(name));
                node.map_signal_memory(static_cast<int>(i), addr);
            }
        }
    }

    // Actors.
    for (ObjectId a_id : system.refs("actors")) {
        const MObject& actor = model.at(a_id);
        auto node_id = static_cast<int>(actor.attr("node").as_int());
        rt::Node& node = target.node(node_id);

        // The observer is the body itself; flatten with its address, then
        // install the program (two-phase because flatten needs the pointer).
        auto body = std::make_unique<ProgramBody>(SubProgram{}, a_id, opts);
        body->set_program(flatten_actor(model, actor, body.get()));

        LoadedActor la;
        la.actor = a_id;
        la.name = actor.name();
        la.node = node_id;
        collect_observables(model, model.at(actor.ref("network")), actor.name() + ".",
                            node.memory(), la.elements);
        for (const ElementMemory& em : la.elements) body->add_element_memory(em);

        rt::TaskConfig cfg;
        cfg.name = actor.name();
        cfg.period = actor.attr("period_us").as_int() * rt::kUs;
        cfg.deadline = actor.attr("deadline_us").as_int() * rt::kUs;
        cfg.priority = static_cast<int>(actor.attr("priority").as_int());
        std::vector<ObjectId> out_ids;
        for (ObjectId b_id : actor.refs("inputs")) {
            ObjectId sig = model.at(b_id).ref("signal");
            cfg.input_signals.push_back(loaded.signal_index.at(sig.raw));
        }
        for (ObjectId b_id : actor.refs("outputs")) {
            ObjectId sig = model.at(b_id).ref("signal");
            cfg.output_signals.push_back(loaded.signal_index.at(sig.raw));
            out_ids.push_back(sig);
        }
        body->set_output_elements(std::move(out_ids));

        node.add_task(std::move(cfg), std::move(body));
        loaded.actors.push_back(std::move(la));
    }

    return loaded;
}

} // namespace gmdf::codegen
