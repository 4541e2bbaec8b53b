// SessionRegistry: ownership of many concurrent debug sessions.
//
// The paper's GDM serves exactly one executing target per debugger
// instance; the hub breaks that 1:1 shape. A registry owns N named
// sessions — each a full proto::Scenario bundle (design model, simulated
// target, DebugSession, SessionController) — hands out stable integer
// ids, and aggregates per-session EngineStats into hub-level totals.
// The protocol face (session open/close/list/use, @<id> routing) lives
// in hub::HubController; the fleet pump in hub::ShardedScheduler.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "proto/scenarios.hpp"

namespace gmdf::hub {

class SessionRegistry {
public:
    /// Session lifecycle under fault containment. A Faulted session is
    /// quarantined: the scheduler skips it and the hub refuses to route
    /// requests into it, but it stays listed (with the captured error)
    /// until closed or revived — the rest of the fleet is unaffected.
    enum class Health { Live, Faulted };

    /// One hosted session. The id is stable for the life of the hub and
    /// never reused; the name is unique among live sessions (a closed
    /// session's name may be reopened, yielding a fresh id).
    struct Entry {
        int id = 0;
        std::string name;
        std::unique_ptr<proto::Scenario> scenario;
        /// Fault containment state. Written only by whichever thread
        /// exclusively holds the session (a pump worker mid-slice, or
        /// the hub's request path); read between pumps.
        Health health = Health::Live;
        std::string fault_reason;
        bool runaway = false;        ///< quarantined by the pump watchdog
        int overrun_strikes = 0;     ///< consecutive slice-deadline overruns

        [[nodiscard]] core::DebugSession& session() { return *scenario->session; }
        [[nodiscard]] proto::SessionController& controller() {
            return scenario->controller();
        }
        [[nodiscard]] bool faulted() const { return health == Health::Faulted; }
        void mark_faulted(std::string reason) {
            health = Health::Faulted;
            fault_reason = std::move(reason);
        }
        /// Clears the quarantine (session revive). The caller is
        /// responsible for restoring sane session state first.
        void clear_fault() {
            health = Health::Live;
            fault_reason.clear();
            runaway = false;
            overrun_strikes = 0;
        }
    };

    /// Why open()/adopt() refused to register a session.
    enum class OpenError {
        None,
        BadName,       ///< not a valid session name
        DuplicateName, ///< the name is already live
        NoScenario,    ///< unknown scenario name / null scenario given
    };

    /// Session names are one token of [A-Za-z0-9_-] with at least one
    /// non-digit, so they survive the line protocol and the @<session>
    /// prefix unquoted and can never shadow a session id.
    [[nodiscard]] static bool valid_name(std::string_view name);

    /// Builds a session from a built-in scenario (proto::make_scenario)
    /// and registers it. Null on failure, with the reason in `error`
    /// when provided.
    Entry* open(std::string_view scenario_name, std::string name,
                OpenError* error = nullptr);

    /// Registers an externally built scenario (tests, embedders). Same
    /// failure rules as open(), minus the scenario lookup.
    Entry* adopt(std::unique_ptr<proto::Scenario> scenario, std::string name,
                 OpenError* error = nullptr);

    /// Destroys a live session; false for unknown ids.
    bool close(int id);

    [[nodiscard]] Entry* find(int id);
    [[nodiscard]] Entry* find_named(std::string_view name);

    /// Resolves a session tag: all digits -> id lookup, else name lookup.
    [[nodiscard]] Entry* resolve(std::string_view tag);

    /// Live sessions, in id (= opening) order.
    [[nodiscard]] const std::vector<std::unique_ptr<Entry>>& entries() const {
        return entries_;
    }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }

    /// Hosted sessions currently quarantined as Faulted.
    [[nodiscard]] std::size_t faulted_count() const {
        std::size_t n = 0;
        for (const auto& e : entries_)
            if (e->faulted()) ++n;
        return n;
    }

    [[nodiscard]] std::uint64_t opened() const { return opened_; }
    [[nodiscard]] std::uint64_t closed() const { return closed_; }

    /// Hub-level totals: the sum of every live session's EngineStats
    /// plus everything closed sessions had accumulated when they were
    /// retired — so the counters are monotonic across closes and usable
    /// for delta monitoring.
    ///
    /// Concurrency: open/adopt/close and aggregate_stats serialize on an
    /// internal mutex, so the registry's shape and the retired totals
    /// are safe against a reader and a mutator on different threads.
    /// The per-session engine counters themselves are written by
    /// whichever thread is pumping that session; ShardedScheduler::pump
    /// joins its workers before returning, so reading them between
    /// pumps (the only protocol path) is race-free.
    [[nodiscard]] core::EngineStats aggregate_stats() const;

private:
    bool check_name(const std::string& name, OpenError* error);
    Entry* insert(std::unique_ptr<proto::Scenario> scenario, std::string name);
    static void accumulate(core::EngineStats& into, const core::EngineStats& from);

    /// Guards entries_'s shape, the open/close counters, and retired_.
    /// entries()/find() stay lock-free: sessions are never opened or
    /// closed while a pump is slicing the fleet (the SliceHook contract).
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Entry>> entries_;
    int next_id_ = 1;
    std::uint64_t opened_ = 0;
    std::uint64_t closed_ = 0;
    core::EngineStats retired_; ///< totals carried over from closed sessions
};

} // namespace gmdf::hub
