// SessionController: the protocol face of one DebugSession.
//
// Dispatches Requests against the session straight from the static
// session verb table, and — as an EngineObserver — turns breakpoint
// hits, divergences, and engine-state changes into asynchronous Events
// queued for the client. DebugSession's own control methods route
// through the same handlers (see core/session.cpp), so the C++ API and
// the protocol cannot drift.
//
// The verb table (names, usage, summaries, handlers, per-verb latency
// histograms) is built once per process; a controller instance holds
// strictly per-session state — the session pointer, the run hook, and
// the event queue — so a hub hosting many sessions pays nothing per
// session for its verbs. The hub's own verbs live in a second table of
// the same shape (hub/controller.cpp); both list their `help` through
// help_lines() below, so documentation cannot drift from what is
// actually dispatchable.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/observer.hpp"
#include "obs/metrics.hpp"
#include "proto/message.hpp"
#include "rt/des.hpp"

namespace gmdf::core {
class DebugSession;
} // namespace gmdf::core

namespace gmdf::replay {
class Timeline;
} // namespace gmdf::replay

namespace gmdf::proto {

/// Advances the host clock (wall time of the attached platform) by the
/// given simulated duration; what the `run` verb drives. The REPL binds
/// this to rt::Target::run_for; scripted harnesses pump their transport.
using RunHook = std::function<void(rt::SimTime)>;

// A verb table is a vector of rows with `verb`, `usage`, `summary` and a
// member-function `handler`, in help order. Several rows may share a
// verb to document its forms separately (`break add ...` / `break
// remove <handle>`): the first row with a handler dispatches, the rest
// are doc-only (null handler).

/// The row that dispatches `verb`, or null.
template <typename Row>
const Row* find_verb(const std::vector<Row>& table, std::string_view verb) {
    for (const Row& row : table)
        if (row.verb == verb && row.handler != nullptr) return &row;
    return nullptr;
}

/// The `help` listing: "<usage> -- <summary>" per row, optionally only
/// one verb's rows.
template <typename Row>
std::vector<std::string> help_lines(const std::vector<Row>& table,
                                    std::string_view verb = {}) {
    std::vector<std::string> out;
    for (const Row& row : table)
        if (verb.empty() || row.verb == verb)
            out.push_back(std::string(row.usage) + " -- " + std::string(row.summary));
    return out;
}

class SessionController final : public core::EngineObserver {
public:
    /// One row of the session verb table.
    struct Verb {
        std::string_view verb;
        std::string_view usage;   ///< e.g. "step [actor]"
        std::string_view summary; ///< one-line human description
        Response (SessionController::*handler)(const Request&); ///< null: doc-only row
        /// proto.request_ns{verb}, registered with the table; null on
        /// doc-only rows.
        obs::Histogram* latency = nullptr;
    };

    /// The session verb table, built by the first controller's
    /// constructor so every verb's histogram is in a scrape before any
    /// request.
    static const std::vector<Verb>& verb_table();

    /// Subscribes to `session`'s engine. The session must outlive the
    /// controller.
    explicit SessionController(core::DebugSession& session);
    ~SessionController() override;

    SessionController(const SessionController&) = delete;
    SessionController& operator=(const SessionController&) = delete;

    /// Executes one request; counts it in the session's EngineStats and
    /// times it in its verb's histogram. Unknown verbs and handler
    /// exceptions come back as error Responses. Never throws.
    Response execute(const Request& req);

    /// Parses and executes one request line.
    Response execute_line(std::string_view line);

    /// Installs the `run` verb's clock hook; without one, `run` reports
    /// bad-state.
    void set_run_hook(RunHook hook) { run_hook_ = std::move(hook); }

    /// Attaches the session's time-travel timeline (non-owning; may be
    /// null). With one attached, the checkpoint/rewind/step-back/bisect
    /// verbs work and every execution-affecting verb is journaled so
    /// rewind can re-apply it during catch-up re-execution.
    void set_timeline(replay::Timeline* timeline) { timeline_ = timeline; }
    [[nodiscard]] replay::Timeline* timeline() { return timeline_; }

    /// Queued asynchronous events, oldest first; the queue is emptied.
    [[nodiscard]] std::vector<Event> drain_events();

    [[nodiscard]] bool has_events() const { return !events_.empty(); }

    /// Events dropped because the queue hit its bound (client not
    /// draining); counted in the session's EngineStats::events_dropped.
    [[nodiscard]] std::uint64_t dropped_events() const;

    // EngineObserver: queue asynchronous notifications.
    void on_breakpoint_hit(int handle, const core::Breakpoint& bp,
                           const link::Command& cmd, rt::SimTime t) override;
    void on_divergence(const core::Divergence& d) override;
    void on_state_change(core::EngineState from, core::EngineState to) override;

private:
    Response dispatch(const Request& req);
    void push_event(Event ev);

    // Verb handlers.
    Response cmd_help(const Request& req);
    Response cmd_info(const Request& req);
    Response cmd_run(const Request& req);
    Response cmd_pause(const Request& req);
    Response cmd_resume(const Request& req);
    Response cmd_step(const Request& req);
    Response cmd_step_filter(const Request& req);
    Response cmd_break(const Request& req);
    Response cmd_query(const Request& req);
    Response cmd_render(const Request& req);
    Response cmd_trace_profile(const Request& req);
    Response cmd_trace(const Request& req);
    Response cmd_replay(const Request& req);
    Response cmd_checkpoint(const Request& req);
    Response cmd_rewind(const Request& req);
    Response cmd_step_back(const Request& req);
    Response cmd_bisect(const Request& req);
    Response cmd_quit(const Request& req);

    core::DebugSession* session_;
    RunHook run_hook_;
    replay::Timeline* timeline_ = nullptr;
    std::deque<Event> events_;
};

} // namespace gmdf::proto
