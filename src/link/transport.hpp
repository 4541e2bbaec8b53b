// Pluggable debug transports: the seam between the target link and the
// debugger engine.
//
// The paper's framework (Fig. 2) is a pipeline — target link -> debugger
// engine -> GDM animation/trace — but the link half comes in flavours:
// the active RS-232 command interface (framed UART traffic) and the
// passive JTAG watch (host-side synthesis from observed RAM changes).
// A Transport hides that difference behind one interface: it delivers
// decoded link::Commands into a CommandSink and exposes the execution
// control path (pause/resume/step) of whatever target it fronts. New
// probes (CAN, SWD, a replayed trace file, a network socket) plug in by
// implementing this interface; the engine never changes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "link/commands.hpp"
#include "link/framing.hpp"
#include "link/jtag.hpp"
#include "link/watch.hpp"
#include "rt/des.hpp"

namespace gmdf::rt {
class Target;
} // namespace gmdf::rt

namespace gmdf::link {

/// Receives the decoded command stream a transport produces. The
/// debugger engine implements this; tests can implement it directly.
class CommandSink {
public:
    virtual ~CommandSink() = default;
    virtual void deliver(const Command& cmd, rt::SimTime at) = 0;
};

/// Model-level step restriction: which actor's task consumes the next
/// single-step (empty: any task's next release).
struct StepFilter {
    std::string actor;

    [[nodiscard]] bool any() const { return actor.empty(); }
    [[nodiscard]] bool matches(std::string_view task_name) const {
        return actor.empty() || actor == task_name;
    }
};

/// Callbacks into the target platform (pause/resume/single-step). A
/// transport hands these to the engine so model-level breakpoints can
/// halt the execution they observe.
struct TargetControl {
    std::function<void()> pause;
    std::function<void()> resume;
    std::function<void(const StepFilter&)> step;
};

/// Link-level health counters, uniform across transport kinds. Counters
/// that do not apply to a given transport stay zero.
struct TransportStats {
    std::uint64_t commands = 0;       ///< commands delivered to the sink
    std::uint64_t corrupt_frames = 0; ///< framed links: CRC/escape drops
    std::uint64_t junk_bytes = 0;     ///< framed links: inter-frame garbage
    std::uint64_t polls = 0;          ///< polled links: completed rounds
    std::uint64_t watch_events = 0;   ///< polled links: observed changes
};

/// A debug link to one running target.
///
/// Lifecycle: constructed cold -> open(sink) wires it to the consumer and
/// starts delivery -> poll(sink, now) pumps any host-side work that is not
/// event-driven -> close() stops delivery (stats stay readable). open()
/// must be called before the target starts executing so no events are
/// missed; a transport is bound to at most one sink at a time.
class Transport {
public:
    Transport() = default;
    Transport(const Transport&) = delete;
    Transport& operator=(const Transport&) = delete;
    virtual ~Transport() = default;

    [[nodiscard]] virtual const char* name() const = 0;

    /// Binds the transport to `sink` and starts delivering commands.
    virtual void open(CommandSink& sink) = 0;

    /// Explicit host-side pump at time `now`: transports whose delivery
    /// is event-driven (UART byte callbacks, simulator-scheduled pollers)
    /// treat this as a cheap no-op; file/socket transports drain here.
    virtual void poll(CommandSink& sink, rt::SimTime now) = 0;

    /// Stops delivery. Safe to call more than once.
    virtual void close() = 0;

    [[nodiscard]] virtual TransportStats stats() const = 0;

    /// The execution-control path of the target this transport fronts.
    [[nodiscard]] virtual TargetControl control() = 0;

    /// Deterministic-replay capability (gmdf::replay). A transport that
    /// opts in guarantees that (a) its delivery is a pure function of
    /// target state — no internal buffering carried across deliveries —
    /// so checkpoint restore + re-execution reproduces its command
    /// stream, and (b) restore_stats() rewinds its counters. The default
    /// is false: rewind is refused with a typed error on sessions whose
    /// transports cannot make that promise (passive JTAG pollers hold
    /// host-side chain state; scripted feeds hold a cursor).
    [[nodiscard]] virtual bool replay_safe() const { return false; }

    /// Rewinds the transport's counters to snapshot values (replay-safe
    /// transports only; the default ignores the request).
    virtual void restore_stats(const TransportStats& s) { (void)s; }
};

/// Active command interface (paper's RS-232 solution): the target's debug
/// UART traffic is HDLC-style frames carrying encoded commands; this
/// transport owns the FrameDecoder and delivers every CRC-valid command.
class ActiveUartTransport final : public Transport {
public:
    /// `target` must outlive the transport.
    explicit ActiveUartTransport(rt::Target& target) : target_(&target) {}
    ~ActiveUartTransport() override;

    [[nodiscard]] const char* name() const override { return "active-uart"; }
    void open(CommandSink& sink) override;
    /// Delivery is push-style (the UART byte callback): nothing to pump.
    void poll(CommandSink& sink, rt::SimTime now) override {
        (void)sink;
        (void)now;
    }
    void close() override;
    [[nodiscard]] TransportStats stats() const override;
    [[nodiscard]] TargetControl control() override;

    /// UART batches arrive whole-frame-aligned (generated code emits
    /// complete frames per scan), so the decoder holds no state between
    /// deliveries and restore + re-execution replays the byte stream
    /// bit-for-bit.
    [[nodiscard]] bool replay_safe() const override { return true; }
    void restore_stats(const TransportStats& s) override;

private:
    rt::Target* target_;
    FrameDecoder decoder_;
    CommandSink* sink_ = nullptr;
    std::uint64_t commands_ = 0;
};

/// One watched RAM word and the rule synthesizing a command from its
/// changes. Keeps PassiveJtagTransport independent of the code generator:
/// whoever loaded the target (codegen, a linker map, a hand-written
/// table) compiles its knowledge down to these specs.
struct WatchSpec {
    enum class Kind {
        Indexed, ///< word is an index into `indexed` (SM state / modal mode)
        Value,   ///< word is an IEEE-754 single (signal mirror)
    };
    int node = 0;
    std::uint32_t addr = 0;
    Kind kind = Kind::Indexed;
    /// Command kind to synthesize (StateEnter/ModeChange for Indexed,
    /// SignalUpdate for Value).
    Cmd cmd = Cmd::StateEnter;
    std::uint32_t element = 0;          ///< command `a`: the observed element id
    std::vector<std::uint32_t> indexed; ///< Indexed: word value -> command `b`
};

/// Passive JTAG watch (paper's zero-overhead solution): a JtagTap +
/// JtagProbe + WatchPoller per target node; observed memory changes are
/// synthesized into the same command stream the active interface carries.
/// `initial` commands are delivered once at open() — a change-based watch
/// cannot see initial states (the mirror word is primed), so the caller
/// synthesizes them from the design model.
class PassiveJtagTransport final : public Transport {
public:
    /// `target` must outlive the transport. `poll_period` bounds
    /// detection latency (bench C4).
    PassiveJtagTransport(rt::Target& target, std::vector<WatchSpec> specs,
                         std::vector<Command> initial, rt::SimTime poll_period,
                         double tck_hz = 1e6);
    ~PassiveJtagTransport() override;

    [[nodiscard]] const char* name() const override { return "passive-jtag"; }
    void open(CommandSink& sink) override;
    void poll(CommandSink& sink, rt::SimTime now) override;
    void close() override;
    [[nodiscard]] TransportStats stats() const override;
    [[nodiscard]] TargetControl control() override;

private:
    struct NodeLink {
        std::unique_ptr<JtagTap> tap;
        std::unique_ptr<JtagProbe> probe;
        std::unique_ptr<WatchPoller> poller;
        std::map<std::uint32_t, const WatchSpec*> by_addr;
    };

    void synthesize(const WatchEvent& ev, const WatchSpec& spec);

    rt::Target* target_;
    std::vector<WatchSpec> specs_;
    std::vector<Command> initial_;
    rt::SimTime period_;
    double tck_hz_;
    std::vector<std::unique_ptr<NodeLink>> links_;
    CommandSink* sink_ = nullptr;
    std::uint64_t commands_ = 0;
};

/// Scripted in-memory transport: delivers a fixed command sequence at
/// open()/poll(). Backs tests and makes trace-replay a first-class
/// transport (no target needed).
class ScriptedTransport final : public Transport {
public:
    struct Entry {
        Command cmd;
        rt::SimTime at = 0;
    };

    ScriptedTransport() = default;
    explicit ScriptedTransport(std::vector<Entry> script) : script_(std::move(script)) {}

    /// Appends one command to the script (before or between polls).
    void push(const Command& cmd, rt::SimTime at) { script_.push_back({cmd, at}); }

    [[nodiscard]] const char* name() const override { return "scripted"; }
    void open(CommandSink& sink) override { sink_ = &sink; }

    /// Delivers every scripted command with timestamp <= now, in order.
    void poll(CommandSink& sink, rt::SimTime now) override;

    void close() override { sink_ = nullptr; }
    [[nodiscard]] TransportStats stats() const override;

    /// No live target behind a script: control callbacks count invocations.
    [[nodiscard]] TargetControl control() override;

    [[nodiscard]] std::uint64_t pauses() const { return pauses_; }
    [[nodiscard]] std::uint64_t resumes() const { return resumes_; }
    [[nodiscard]] const std::vector<StepFilter>& steps() const { return steps_; }

private:
    std::vector<Entry> script_;
    std::size_t next_ = 0;
    CommandSink* sink_ = nullptr;
    std::uint64_t commands_ = 0;
    std::uint64_t pauses_ = 0;
    std::uint64_t resumes_ = 0;
    std::vector<StepFilter> steps_;
};

} // namespace gmdf::link
