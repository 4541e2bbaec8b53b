#include "replay/timeline.hpp"

#include <algorithm>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay/compare.hpp"
#include "rt/target.hpp"

namespace gmdf::replay {

namespace {

/// Checkpoint capture/restore wall-clock timings, shared across every
/// timeline in the process. Touched from the Timeline ctor so a fresh
/// hub's /metrics catalog lists them before the first checkpoint.
struct ReplayMetrics {
    obs::Histogram* capture_ns;
    obs::Histogram* restore_ns;
};

const ReplayMetrics& replay_metrics() {
    static const ReplayMetrics metrics{&obs::registry().histogram("replay.capture_ns"),
                                       &obs::registry().histogram("replay.restore_ns")};
    return metrics;
}

} // namespace

Timeline::Timeline(rt::Target& target, core::DebugSession& session)
    : target_(&target), session_(&session) {
    (void)replay_metrics();
}

rt::SimTime Timeline::now() const { return target_->sim().now(); }

void Timeline::set_auto_period(rt::SimTime period) {
    auto_period_ = period < 0 ? 0 : period;
    if (auto_period_ > 0) next_capture_ = target_->sim().now();
}

const Checkpoint* Timeline::capture_now(std::string* error) {
    const rt::SimTime now = target_->sim().now();
    if (auto_period_ > 0 && now >= next_capture_)
        next_capture_ = (now / auto_period_ + 1) * auto_period_;
    std::string who;
    if (!transports_replay_safe(&who)) {
        if (error != nullptr)
            *error = "transport '" + who + "' is not deterministic-replay capable";
        return nullptr;
    }
    try {
        Checkpoint cp;
        {
            obs::Span span("replay", "capture", {}, -1, replay_metrics().capture_ns);
            cp.snap = capture_snapshot(*target_, *session_);
        }
        cp.journal_index = journal_base_ + journal_.size();
        store_.add(std::move(cp));
        return &store_.entries().back();
    } catch (const std::runtime_error& e) {
        if (error != nullptr) *error = e.what();
        return nullptr;
    }
}

void Timeline::maybe_capture() {
    if (auto_period_ > 0 && !replaying_ && target_->sim().now() >= next_capture_)
        capture_now(nullptr);
}

void Timeline::advance(rt::SimTime duration) {
    const rt::SimTime horizon = target_->sim().now() + duration;
    maybe_capture(); // the baseline, or an overdue cadence point
    while (target_->sim().now() < horizon) {
        const rt::SimTime stop = auto_period_ > 0 ? std::min(horizon, next_capture_) : horizon;
        target_->run_for(stop - target_->sim().now());
        maybe_capture();
    }
}

void Timeline::note(ControlOp op) {
    op.at = target_->sim().now();
    journal_.push_back(std::move(op));
    if (journal_.size() <= kJournalCapacity) return;
    journal_.pop_front();
    ++journal_base_;
    // Checkpoints anchored before the surviving window can no longer
    // catch up — rewind past them now refuses with its usual
    // out-of-range/no-checkpoint error instead of replaying wrong.
    store_.drop_before_journal_index(journal_base_);
}

bool Timeline::transports_replay_safe(std::string* who) const {
    for (const auto& t : session_->transports()) {
        if (!t->replay_safe()) {
            if (who != nullptr) *who = t->name();
            return false;
        }
    }
    return true;
}

NavError Timeline::out_of_range(std::string detail) const {
    NavError err;
    err.kind = store_.entries().empty() ? NavError::Kind::NoCheckpoint
                                        : NavError::Kind::OutOfRange;
    err.detail = std::move(detail);
    if (auto t = store_.earliest_time(); t.has_value()) err.earliest = *t;
    err.latest = target_->sim().now();
    return err;
}

void Timeline::apply_control(const ControlOp& op) {
    core::DebuggerEngine& engine = session_->engine();
    switch (op.kind) {
    case ControlOp::Kind::Pause: engine.pause(); break;
    case ControlOp::Kind::Resume: engine.resume(); break;
    case ControlOp::Kind::Step: engine.step(); break;
    case ControlOp::Kind::StepFilter: engine.set_step_filter({op.actor}); break;
    case ControlOp::Kind::BreakAdd: engine.restore_breakpoint(op.handle, op.bp); break;
    case ControlOp::Kind::BreakRemove: engine.remove_breakpoint(op.handle); break;
    }
}

std::size_t Timeline::replay_span(const Checkpoint& cp, rt::SimTime t,
                                  core::EngineObserver* extra) {
    core::DebuggerEngine& engine = session_->engine();
    // Exception-safe replay scope: restore/load paths can throw, and the
    // dispatcher surfaces that as an internal error — the engine must
    // never be left stuck in replay mode with a dangling observer.
    struct ReplayScope {
        Timeline* tl;
        core::DebuggerEngine* engine;
        core::EngineObserver* extra;
        ~ReplayScope() {
            if (extra != nullptr) engine->remove_observer(extra);
            engine->set_replay_mode(false);
            tl->replaying_ = false;
        }
    } scope{this, &engine, extra};
    replaying_ = true;
    engine.set_replay_mode(true);
    if (extra != nullptr) engine.add_observer(extra);

    {
        obs::Span span("replay", "restore", {}, -1, replay_metrics().restore_ns);
        restore_snapshot(cp.snap, *target_, *session_);
    }
    // journal_index is absolute; the ring holds [journal_base_, base +
    // size). Checkpoints stranded below the window are dropped at
    // eviction time, so the start is always inside it.
    std::size_t i = cp.journal_index;
    rt::SimTime cur = cp.snap.time;
    for (; i - journal_base_ < journal_.size(); ++i) {
        const ControlOp& op = journal_[i - journal_base_];
        // Controls stamped exactly at t belong to time t (trace events at
        // t are retained, so the journal boundary must match); anything
        // later is the discarded future.
        if (op.at > t) break;
        if (op.at > cur) {
            target_->run_for(op.at - cur);
            cur = op.at;
        }
        apply_control(op);
    }
    if (cur < t) target_->run_for(t - cur);
    return i;
}

void Timeline::rebuild_scene() {
    // A session that never built its view has no scene to rebuild: the
    // view, built on first use, animates the truncated trace.
    if (!session_->view_built()) return;
    session_->reset_scene();
    core::animate_trace(session_->design(), session_->engine().bindings(),
                        session_->trace().events(), session_->animator());
}

std::optional<NavError> Timeline::rewind_to(rt::SimTime t) {
    std::string who;
    if (!transports_replay_safe(&who))
        return NavError{NavError::Kind::NotDeterministic,
                        "transport '" + who +
                            "' is not deterministic-replay capable; rewind refused",
                        -1, -1};
    rt::SimTime now = target_->sim().now();
    if (t < 0 || t > now)
        return out_of_range("time is ahead of the session clock");
    const Checkpoint* cp = store_.nearest_at_or_before(t);
    if (cp == nullptr)
        return out_of_range("no checkpoint at or before the requested time");

    std::size_t next = replay_span(*cp, t, nullptr);

    // The future past t is now abandoned history: drop it everywhere.
    journal_.resize(next - journal_base_);
    session_->trace_recorder().truncate_after(t);
    session_->divergence_log().truncate_after(t);
    store_.drop_after(t);
    rebuild_scene();
    if (auto_period_ > 0) next_capture_ = (t / auto_period_ + 1) * auto_period_;
    return std::nullopt;
}

std::optional<NavError> Timeline::step_back(std::size_t n) {
    const auto& events = session_->trace().events();
    if (events.empty())
        return NavError{NavError::Kind::EmptyTrace,
                        "no recorded events to step back over", -1, -1};
    if (n == 0 || n > events.size())
        return out_of_range("step-back count exceeds the recorded trace (" +
                            std::to_string(events.size()) + " events)");
    rt::SimTime te = events[events.size() - n].t;
    if (te <= 0)
        return out_of_range("the targeted event is at the start of time");
    return rewind_to(te - 1);
}

BisectResult Timeline::bisect() {
    BisectResult res;
    std::string who;
    if (!transports_replay_safe(&who)) {
        res.error =
            "transport '" + who + "' is not deterministic-replay capable";
        return res;
    }
    const auto& events = session_->trace().events();
    if (events.empty()) {
        res.error = "trace is empty - run the target first";
        return res;
    }
    if (store_.entries().empty()) {
        res.error = "no checkpoints - 'checkpoint now' or 'checkpoint auto' "
                    "before running";
        return res;
    }

    // The search window opens at the earliest checkpoint (the base): a
    // re-execution from there decides "first bad step <= i", which is
    // monotone in i. Later checkpoints hold the recorded (possibly
    // faulty) state, so a probe restores one only where that state is
    // proven.
    const auto& checkpoints = store_.entries();
    const Checkpoint& base = checkpoints.front();
    auto first_after = [&](rt::SimTime t) {
        return static_cast<std::size_t>(
            std::partition_point(events.begin(), events.end(),
                                 [&](const core::TraceEvent& e) { return e.t <= t; }) -
            events.begin());
    };
    std::size_t lo = first_after(base.snap.time);
    if (lo >= events.size()) {
        res.error = "every recorded event predates the earliest checkpoint";
        return res;
    }
    res.steps_searched = events.size() - lo;

    Snapshot bookmark;
    {
        obs::Span span("replay", "capture", {}, -1, replay_metrics().capture_ns);
        bookmark = capture_snapshot(*target_, *session_);
    }
    // Every step before `proven` has re-executed from the base without
    // disagreement, so the latest checkpoint strictly before
    // events[min(proven, i)].t holds the state re-executing the base
    // would reach there (the platform is deterministic). A probe at
    // step i restores that checkpoint, re-executes up to events[i].t
    // comparing from the first event after it, and reports the earliest
    // disagreement (trace mismatch or divergence) it observed.
    std::size_t proven = lo;
    auto probe = [&](std::size_t i) {
        rt::SimTime limit = events[std::min(proven, i)].t;
        auto it = std::partition_point(
            checkpoints.begin(), checkpoints.end(),
            [&](const Checkpoint& cp) { return cp.snap.time < limit; });
        const Checkpoint& from = it == checkpoints.begin() ? base : *std::prev(it);
        TraceComparator comp(events, first_after(from.snap.time));
        replay_span(from, events[i].t, &comp);
        ++res.probes;
        proven = std::max(proven, comp.first_bad().value_or(comp.matched_through()));
        return comp;
    };

    // The first probe runs to the last step at or before the earliest
    // divergence recorded after the base: a deterministic re-execution
    // trips it there again, so nothing later can hold the first bad
    // step. It runs to the end when nothing diverged, or when that
    // bounded probe comes back clean.
    const std::size_t last = events.size() - 1;
    std::size_t first = last;
    for (const core::Divergence& d : session_->divergences()) {
        if (d.t <= base.snap.time) continue;
        std::size_t after = first_after(d.t);
        if (after > lo) first = after - 1;
        break;
    }
    std::optional<std::size_t> full = probe(first).first_bad();
    if (!full.has_value() && first < last) full = probe(last).first_bad();
    if (!full.has_value()) {
        obs::Span span("replay", "restore", {}, -1, replay_metrics().restore_ns);
        restore_snapshot(bookmark, *target_, *session_);
        return res; // faithful, divergence-free timeline
    }
    // Probes are time-granular (a probe at step i replays every event
    // sharing events[i].t), so a probe may report a first-bad index past
    // its midpoint; the report is exact within the probed window, never
    // clamp it below itself.
    std::size_t hi_bad = *full;
    while (lo < hi_bad) {
        std::size_t mid = lo + (hi_bad - lo) / 2;
        std::optional<std::size_t> bad = probe(mid).first_bad();
        if (!bad.has_value()) {
            lo = mid + 1;
            continue;
        }
        hi_bad = *bad;
        if (*bad > mid) lo = mid + 1; // everything through mid replayed clean
    }

    // One confirming probe at the culprit for the human-readable reason.
    // hi_bad == events.size() means the re-execution emitted extra
    // events past the recorded end: anchor on the last recorded step.
    std::size_t culprit = std::min(hi_bad, last);
    TraceComparator confirm = probe(culprit);
    res.found = true;
    res.step = culprit;
    res.t = events[culprit].t;
    res.command = hi_bad < events.size()
                      ? events[hi_bad].cmd.to_string()
                      : "(re-execution continued past the recorded trace)";
    res.reason = confirm.first_bad().has_value()
                     ? confirm.reason(*confirm.first_bad())
                     : "disagreement did not reproduce on the confirming probe";
    obs::Span span("replay", "restore", {}, -1, replay_metrics().restore_ns);
    restore_snapshot(bookmark, *target_, *session_);
    return res;
}

} // namespace gmdf::replay
