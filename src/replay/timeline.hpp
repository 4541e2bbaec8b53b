// Timeline: time-travel navigation over one deterministic debug session.
//
// Combines three records to make any past sim-time reachable:
//   - the CheckpointStore's periodic snapshots (anchor states),
//   - a control journal of the actions that steered execution
//     (pause/resume/step, step filter, breakpoint add/remove — noted by
//     the protocol controller), each stamped with the sim time it was
//     applied at, so the gaps between stamps are the runs, and
//   - the session's TraceRecorder (the observed command history, used
//     for step-back targeting, scene rebuild, and bisect comparison).
//
// rewind(t): restore the nearest checkpoint <= t, then deterministically
// re-execute forward to t with the engine in replay mode (observers
// suppressed, so the trace / divergence log / protocol events don't
// double-report), truncate the abandoned future (trace, divergences,
// journal, later checkpoints), and rebuild the scene from the surviving
// trace. After a rewind, running forward reproduces the original
// execution byte-identically — the whole platform is deterministic and
// every execution-affecting input is restored or replayed.
//
// bisect(): binary-searches the recorded steps after the earliest
// checkpoint for the first one whose re-execution disagrees with the
// recorded trace or trips the divergence checker — the fault-
// localization loop (find the first step where target behaviour left
// the design model) as one verb. Each probe restores the latest
// checkpoint before the first step not yet proven faithful, so cadence
// captures bound how much a probe re-executes, and the first probe
// stops at the earliest recorded divergence.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/observer.hpp"
#include "replay/checkpoint.hpp"

namespace gmdf::core {
class DebugSession;
} // namespace gmdf::core

namespace gmdf::replay {

/// One recorded execution-affecting control action. Built with
/// designated initializers that name only the fields its kind uses.
struct ControlOp {
    enum class Kind : std::uint8_t {
        Pause,
        Resume,
        Step,
        StepFilter,
        BreakAdd,
        BreakRemove,
    };
    Kind kind = Kind::Pause;
    rt::SimTime at = 0;     ///< sim time applied at (note() stamps it)
    std::string actor{};    ///< StepFilter
    int handle = 0;         ///< BreakAdd / BreakRemove
    core::Breakpoint bp{};  ///< BreakAdd
};

/// Why a navigation request was refused. `earliest`/`latest` carry the
/// reachable window for OutOfRange (in ns; -1 when there is none).
struct NavError {
    enum class Kind {
        NotDeterministic, ///< a transport cannot promise replay fidelity
        NoCheckpoint,     ///< nothing to restore from
        OutOfRange,       ///< target time outside the reachable window
        EmptyTrace,       ///< step-back/bisect with no recorded events
    };
    Kind kind = Kind::OutOfRange;
    std::string detail;
    rt::SimTime earliest = -1;
    rt::SimTime latest = -1;
};

/// Outcome of bisect().
struct BisectResult {
    bool found = false;
    std::size_t step = 0;      ///< trace index of the first bad step
    rt::SimTime t = 0;         ///< its simulated time
    std::string command;       ///< the culprit command, formatted
    std::string reason;        ///< divergence message / mismatch description
    std::size_t steps_searched = 0;
    std::size_t probes = 0;    ///< checkpoint-restore re-executions used
    std::string error;         ///< non-empty: bisect refused, and why
};

class Timeline {
public:
    /// Both references must outlive the timeline; `session` must be
    /// attached to `target` (its engine is the target's command sink).
    Timeline(rt::Target& target, core::DebugSession& session);

    // ---- configuration -----------------------------------------------------

    /// Automatic checkpoint cadence in sim time; 0 disables. Enabling
    /// makes a capture due at once (the next advance() starts with it).
    void set_auto_period(rt::SimTime period);
    [[nodiscard]] rt::SimTime auto_period() const { return auto_period_; }

    void set_byte_limit(std::size_t limit) { store_.set_byte_limit(limit); }

    [[nodiscard]] const CheckpointStore& store() const { return store_; }

    // ---- capture -----------------------------------------------------------

    /// Takes a checkpoint now. Null on refusal with the reason in
    /// `error` (non-deterministic transports, unrestorable state). At or
    /// past a due cadence point it is that point's capture, refused or not.
    const Checkpoint* capture_now(std::string* error = nullptr);

    /// capture_now() when a cadence capture is due and no replay runs;
    /// after an advance() none is.
    void maybe_capture();

    /// Advances the target by `duration`, capturing each cadence point on
    /// the way, however the caller slices its advances (through
    /// proto::Scenario::advance, the only caller).
    void advance(rt::SimTime duration);

    // ---- journal (called by the protocol controller) -----------------------

    /// Control actions the journal keeps. Past it the oldest actions are
    /// evicted, and checkpoints whose catch-up window they anchored are
    /// dropped with them, which shrinks how far back rewind can reach
    /// (never its correctness).
    static constexpr std::size_t kJournalCapacity = 65536;

    /// Journals a control action just applied to the engine, stamped
    /// with the session clock.
    void note(ControlOp op);

    /// Control actions evicted because the journal was full.
    [[nodiscard]] std::uint64_t journal_dropped() const { return journal_base_; }

    // ---- navigation --------------------------------------------------------

    /// Rewinds the session to sim time `t`. Returns the refusal, or
    /// nullopt on success.
    std::optional<NavError> rewind_to(rt::SimTime t);

    /// Rewinds to just before the n-th most recent recorded event.
    std::optional<NavError> step_back(std::size_t n);

    [[nodiscard]] BisectResult bisect();

    /// The session clock (convenience for protocol responses).
    [[nodiscard]] rt::SimTime now() const;

private:
    [[nodiscard]] bool transports_replay_safe(std::string* who) const;
    NavError out_of_range(std::string detail) const;

    /// Restores `cp` and re-executes forward to `t` in replay mode,
    /// running up to each journaled control stamped at or before t and
    /// re-applying it; `extra` (may be null) is registered as a
    /// replay-aware observer for the duration. Returns the absolute
    /// journal index of the first control not applied.
    std::size_t replay_span(const Checkpoint& cp, rt::SimTime t,
                            core::EngineObserver* extra);
    void apply_control(const ControlOp& op);
    void rebuild_scene();

    rt::Target* target_;
    core::DebugSession* session_;
    CheckpointStore store_;
    /// Journal ring, in time order. Checkpoint.journal_index stays an
    /// *absolute* index (controls ever journaled); journal_base_ is the
    /// absolute index of journal_.front(), which is also the number of
    /// evicted controls, so eviction never invalidates stored indices.
    std::deque<ControlOp> journal_;
    std::size_t journal_base_ = 0;
    rt::SimTime auto_period_ = 0;
    rt::SimTime next_capture_ = 0;
    bool replaying_ = false;
};

} // namespace gmdf::replay
