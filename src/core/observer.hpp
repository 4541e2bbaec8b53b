// The engine's event bus: typed observation of everything the debugger
// engine does.
//
// The engine itself is a pure event-driven state machine (paper Fig. 3);
// everything downstream of it — scene animation, trace recording, the
// divergence log, future remote clients — subscribes as an EngineObserver
// instead of being a baked-in field. All observers see the same event
// stream in registration order.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/bindings.hpp"
#include "link/commands.hpp"
#include "meta/model.hpp"
#include "rt/des.hpp"

namespace gmdf::core {

/// Engine FSM states (Fig. 3: initial waiting state, animating on
/// command arrival, paused on a model-level breakpoint).
enum class EngineState { Waiting, Animating, Paused };

[[nodiscard]] const char* to_string(EngineState s);

/// Model-level breakpoint kinds.
struct Breakpoint {
    enum class Kind {
        StateEnter,      ///< break when a specific state is entered
        TransitionFired, ///< break when a specific transition fires
        SignalPredicate, ///< break when an expression over signals is true
    };
    Kind kind = Kind::StateEnter;
    /// Element for StateEnter/TransitionFired.
    meta::ObjectId element;
    /// Expression over signal names for SignalPredicate (e.g. "speed > 40").
    std::string predicate;
    bool enabled = true;
    bool one_shot = false; ///< auto-remove after the first hit
};

/// Kebab-case kind name ("state-enter", "transition", "signal-predicate").
[[nodiscard]] const char* to_string(Breakpoint::Kind kind);

/// A detected inconsistency between observed behaviour and the design
/// model (the paper's "implementation error" class).
struct Divergence {
    rt::SimTime t = 0;
    link::Command cmd;
    std::string message;
};

/// Typed event sink the engine fans out to. Default implementations
/// ignore everything; override what you consume. Events per ingested
/// command arrive in a fixed order: on_command first, then any
/// on_divergence, then the bound on_reaction, then on_breakpoint_hit /
/// on_state_change as the engine FSM reacts.
class EngineObserver {
public:
    virtual ~EngineObserver() = default;

    /// Whether this observer also wants events while the engine is in
    /// replay mode (time-travel catch-up re-execution). Most observers
    /// must NOT see them — the trace recorder, divergence log, and
    /// protocol event queue would double-report history they already
    /// hold — so the default is false. Observers that compare or verify
    /// a re-execution (replay::TraceComparator) opt in.
    [[nodiscard]] virtual bool replay_aware() const { return false; }

    /// Every command the engine ingests, before any processing.
    virtual void on_command(const link::Command& cmd, rt::SimTime t) {
        (void)cmd;
        (void)t;
    }

    /// The non-None reaction bound to an ingested command (what a GDM
    /// front-end renders).
    virtual void on_reaction(const link::Command& cmd, const ReactionSpec& spec,
                             rt::SimTime t) {
        (void)cmd;
        (void)spec;
        (void)t;
    }

    /// A model-level breakpoint fired. `bp` is the breakpoint as hit;
    /// one-shot breakpoints are removed right after this callback.
    virtual void on_breakpoint_hit(int handle, const Breakpoint& bp,
                                   const link::Command& cmd, rt::SimTime t) {
        (void)handle;
        (void)bp;
        (void)cmd;
        (void)t;
    }

    /// Observed behaviour disagreed with the design model.
    virtual void on_divergence(const Divergence& d) { (void)d; }

    /// The engine FSM moved (Waiting -> Animating -> Paused -> ...).
    virtual void on_state_change(EngineState from, EngineState to) {
        (void)from;
        (void)to;
    }
};

/// Collects divergences. Bounded: a divergence storm on a long-lived
/// session must not grow memory without limit, so past kCapacity the
/// oldest entries are evicted and counted.
class DivergenceLog final : public EngineObserver {
public:
    /// Entries kept; generous for any real fault hunt.
    static constexpr std::size_t kCapacity = 4096;

    void on_divergence(const Divergence& d) override {
        if (divergences_.size() >= kCapacity) {
            divergences_.pop_front();
            ++dropped_;
        }
        divergences_.push_back(d);
    }

    [[nodiscard]] const std::deque<Divergence>& divergences() const {
        return divergences_;
    }
    [[nodiscard]] bool empty() const { return divergences_.empty(); }
    [[nodiscard]] std::size_t size() const { return divergences_.size(); }

    /// Entries evicted because the log was full.
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

    /// Drops divergences after simulated time `t` (rewind discards the
    /// abandoned future; entries are appended in time order). Eviction
    /// accounting is untouched — only the newest entries go.
    void truncate_after(rt::SimTime t) {
        while (!divergences_.empty() && divergences_.back().t > t)
            divergences_.pop_back();
    }

private:
    std::deque<Divergence> divergences_;
    std::uint64_t dropped_ = 0;
};

} // namespace gmdf::core
