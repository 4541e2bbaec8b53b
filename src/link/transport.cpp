#include "link/transport.hpp"

#include <bit>

#include "rt/target.hpp"

namespace gmdf::link {

namespace {

// The pause/resume/step triple over an rt::Target, shared by every
// transport fronting the simulated platform.
TargetControl make_target_control(rt::Target& target) {
    rt::Target* t = &target;
    return {[t] { t->pause(); },
            [t] { t->resume(); },
            [t](const StepFilter& f) { t->request_single_step(f.actor); }};
}

} // namespace

// ---- ActiveUartTransport ----------------------------------------------------

// The byte-sink callback captures `this`; unhook it before dying.
ActiveUartTransport::~ActiveUartTransport() { close(); }

void ActiveUartTransport::open(CommandSink& sink) {
    sink_ = &sink;
    target_->set_debug_sink([this](int, std::span<const std::uint8_t> bytes,
                                   rt::SimTime at) {
        decoder_.feed(bytes, [this, at](std::span<const std::uint8_t> payload) {
            if (sink_ == nullptr) return; // closed with bytes still on the wire
            auto cmd = decode_command(payload);
            if (cmd.has_value()) {
                ++commands_;
                sink_->deliver(*cmd, at);
            }
        });
    });
}

void ActiveUartTransport::close() {
    sink_ = nullptr;
    target_->set_debug_sink({});
}

TransportStats ActiveUartTransport::stats() const {
    TransportStats s;
    s.commands = commands_;
    s.corrupt_frames = decoder_.corrupt_frames();
    s.junk_bytes = decoder_.junk_bytes();
    return s;
}

TargetControl ActiveUartTransport::control() { return make_target_control(*target_); }

void ActiveUartTransport::restore_stats(const TransportStats& s) {
    commands_ = s.commands;
    decoder_.reset_stream(s.corrupt_frames, s.junk_bytes);
}

// ---- PassiveJtagTransport ---------------------------------------------------

PassiveJtagTransport::PassiveJtagTransport(rt::Target& target,
                                           std::vector<WatchSpec> specs,
                                           std::vector<Command> initial,
                                           rt::SimTime poll_period, double tck_hz)
    : target_(&target), specs_(std::move(specs)), initial_(std::move(initial)),
      period_(poll_period), tck_hz_(tck_hz) {}

PassiveJtagTransport::~PassiveJtagTransport() { close(); }

void PassiveJtagTransport::open(CommandSink& sink) {
    sink_ = &sink;
    if (!links_.empty()) { // reopen after close(): restart the pollers
        for (auto& ln : links_)
            if (ln->poller) ln->poller->start();
        return;
    }
    for (std::size_t n = 0; n < target_->node_count(); ++n) {
        rt::Node& node = target_->node(static_cast<int>(n));
        auto ln = std::make_unique<NodeLink>();
        for (const WatchSpec& spec : specs_) {
            if (spec.node != static_cast<int>(n)) continue;
            ln->by_addr[spec.addr] = &spec;
        }
        if (ln->by_addr.empty()) continue; // nothing observable on this node
        ln->tap = std::make_unique<JtagTap>(node.memory());
        ln->probe = std::make_unique<JtagProbe>(*ln->tap, tck_hz_);
        ln->poller = std::make_unique<WatchPoller>(target_->sim(), *ln->probe, period_);
        for (const auto& [addr, spec] : ln->by_addr) {
            (void)spec;
            ln->poller->watch(addr);
        }
        NodeLink* raw = ln.get();
        ln->poller->set_callback([this, raw](const WatchEvent& ev) {
            auto it = raw->by_addr.find(ev.addr);
            if (it == raw->by_addr.end()) return;
            synthesize(ev, *it->second);
        });
        ln->poller->start();
        links_.push_back(std::move(ln));
    }
    // Initial states are invisible to a change-based watch (the mirror
    // word is primed with the initial index), so they are synthesized
    // from the design model — "the model debugger goes immediately to its
    // initial state" (paper Fig. 6). A transformation fault in the
    // initial state is therefore only detectable actively.
    rt::SimTime now = target_->sim().now();
    for (const Command& cmd : initial_) {
        ++commands_;
        sink_->deliver(cmd, now);
    }
}

void PassiveJtagTransport::synthesize(const WatchEvent& ev, const WatchSpec& spec) {
    if (sink_ == nullptr) return;
    Command cmd;
    cmd.kind = spec.cmd;
    cmd.a = spec.element;
    if (spec.kind == WatchSpec::Kind::Indexed) {
        if (ev.new_value >= spec.indexed.size()) return; // corrupt index
        cmd.b = spec.indexed[ev.new_value];
    } else {
        cmd.value = std::bit_cast<float>(ev.new_value);
    }
    ++commands_;
    sink_->deliver(cmd, ev.at);
}

void PassiveJtagTransport::poll(CommandSink& sink, rt::SimTime now) {
    // Pollers are simulator-scheduled; nothing to pump host-side.
    (void)sink;
    (void)now;
}

void PassiveJtagTransport::close() {
    sink_ = nullptr;
    for (auto& ln : links_)
        if (ln->poller) ln->poller->stop();
}

TransportStats PassiveJtagTransport::stats() const {
    TransportStats s;
    s.commands = commands_;
    for (const auto& ln : links_) {
        if (!ln->poller) continue;
        s.polls += ln->poller->polls();
        s.watch_events += ln->poller->events();
    }
    return s;
}

TargetControl PassiveJtagTransport::control() { return make_target_control(*target_); }

// ---- ScriptedTransport ------------------------------------------------------

void ScriptedTransport::poll(CommandSink& sink, rt::SimTime now) {
    while (next_ < script_.size() && script_[next_].at <= now) {
        ++commands_;
        sink.deliver(script_[next_].cmd, script_[next_].at);
        ++next_;
    }
}

TransportStats ScriptedTransport::stats() const {
    TransportStats s;
    s.commands = commands_;
    return s;
}

TargetControl ScriptedTransport::control() {
    return {[this] { ++pauses_; },
            [this] { ++resumes_; },
            [this](const StepFilter& f) { steps_.push_back(f); }};
}

} // namespace gmdf::link
