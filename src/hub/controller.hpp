// HubController: the protocol face of a multi-session debug hub.
//
// Wraps a SessionRegistry and a ShardedScheduler behind the same
// line-oriented protocol a single SessionController speaks, adding
// session addressing on top:
//
//   session open <scenario> [name]   host a new session (becomes current)
//   session close [session]          close a session (default: current)
//   session list                     list hosted sessions
//   session use <session>            switch the current session
//   session revive [session]         lift a faulted session's quarantine,
//                                    restoring its last checkpoint when a
//                                    timeline is attached
//   session stats                    hub totals and aggregate counters
//   session stats net                network server + per-connection counters
//   session stats shards             per-shard pump counters (sharded hubs)
//   @<session> <verb ...>            route one request to a session by
//                                    id or name without switching
//   attach <session>                 switch this client's session (= use)
//   acl allow|clear|show ...         restrict which sessions this client
//                                    may address or receive events from
//   campaign run <pairs> [seed]      seeded fault-hunt campaign over
//                                    generated models (gmdf::campaign)
//   campaign report                  re-print the last campaign's summary
//   metrics [prefix]                 this hub's scrape (see below)
//
// These verbs are one static table (hub/controller.cpp) that both
// dispatches and documents them; `help` lists the session verb table,
// then this one.
//
// Every other verb is dispatched to the addressed (or current) session's
// own controller, whose `run` hook the hub rebinds to the scheduler — so
// `run <ms>` advances every live session concurrently, interleaving
// their events. With a single hosted session the transcript is
// byte-identical to a bare SessionController: event lines grow their
// "[<name>] " session tag only once a second concurrent session has
// been opened (the tagging latches on for the rest of the hub's life,
// so a transcript never changes shape mid-stream when sessions close).
//
// Multi-client routing: every request executes under a RouteContext —
// the per-client view of the hub (current session, ACL allowlist,
// sessions this client opened). The plain ScriptClient face runs under
// the hub's own root context, so a single-client transcript is
// unchanged; a network server passes one context per connection, giving
// each client its own `session use` state and allowlist over the same
// shared fleet.
//
// Scrapes (`metrics`, prometheus_text()) render obs::registry() merged
// with a throwaway registry of this hub's own totals and its server's,
// so hubs in one process never see each other's counts. Totals render
// as counters, levels (live/faulted sessions, shard assignment, open
// connections) as gauges.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hub/registry.hpp"
#include "hub/sharded.hpp"
#include "proto/script.hpp"

namespace gmdf::campaign {
struct CampaignReport;
} // namespace gmdf::campaign

namespace gmdf::hub {

/// One client's view of the hub: which session its unaddressed verbs
/// route to, which sessions it may touch, and which it opened (and
/// therefore owns). The hub keeps a root context for its direct
/// ScriptClient face; a network server keeps one per connection.
struct RouteContext {
    int current = 0;              ///< session id unaddressed verbs route to
    bool restricted = false;      ///< false: every session is allowed
    std::vector<std::string> acl; ///< allowed session names (when restricted)
    std::vector<int> opened;      ///< ids opened via this context (always allowed)

    /// May this client address / receive events from the session?
    [[nodiscard]] bool allows(int id, std::string_view name) const {
        if (!restricted) return true;
        for (int own : opened)
            if (own == id) return true;
        for (const std::string& a : acl)
            if (a == name) return true;
        return false;
    }
};

class HubController final : public proto::ScriptClient {
public:
    /// Requests handled at hub level (session verbs, routing failures);
    /// requests routed into a session count in that session's
    /// EngineStats instead, exactly as without a hub.
    struct HubStats {
        std::uint64_t requests = 0;
        std::uint64_t request_errors = 0;
        std::uint64_t events_dropped = 0; ///< event lines evicted, full queue
    };

    HubController();
    ~HubController();

    HubController(const HubController&) = delete;
    HubController& operator=(const HubController&) = delete;

    /// Read-only: sessions registered behind the controller's back would
    /// miss install() (run-hook rebinding, current tracking, the
    /// multi-session tag latch) — go through open()/adopt() instead.
    [[nodiscard]] const SessionRegistry& registry() const { return registry_; }

    /// The fleet pump. threads=1 (default) pumps on the calling thread;
    /// set_threads(N) shards the fleet across N workers (`session stats
    /// shards` reports the split). A single session's transcript is the
    /// same at any thread count. Event collection is safe either way:
    /// the hub queue is a mutex-guarded MPSC under a sharded pump.
    [[nodiscard]] ShardedScheduler& scheduler() { return scheduler_; }

    /// Hosts a new session from a built-in scenario / an externally
    /// built one; rebinds its run hook to the scheduler and makes it
    /// current. Null on failure, with the reason in `error` when
    /// provided.
    SessionRegistry::Entry* open(std::string_view scenario, std::string name,
                                 SessionRegistry::OpenError* error = nullptr);
    SessionRegistry::Entry* adopt(std::unique_ptr<proto::Scenario> scenario,
                                  std::string name,
                                  SessionRegistry::OpenError* error = nullptr);

    /// The current session (unaddressed verbs route here); null when no
    /// session is open.
    [[nodiscard]] SessionRegistry::Entry* current() { return registry_.find(root_.current); }

    /// The hub's own client view (what the plain ScriptClient face runs
    /// under).
    [[nodiscard]] RouteContext& root_context() { return root_; }

    /// Executes one request line: resolves an optional @<session>
    /// prefix, handles the hub's own verbs, and routes everything else
    /// to the addressed session. Never throws.
    proto::Response execute_line(std::string_view line) override;

    /// Same, under an explicit per-client context (a network connection).
    proto::Response execute_line(std::string_view line, RouteContext& ctx);

    /// Releases one client's grip on the hub when it goes away: closes
    /// the sessions this context opened (a client must never tear down
    /// sessions it didn't open — those are left untouched) and clears
    /// the context. Safe against sessions already closed by other means.
    void release_context(RouteContext& ctx);

    /// Formatted event lines from every hosted session, oldest first,
    /// tagged with their session once the hub has gone multi-session.
    std::vector<std::string> drain_event_lines() override;

    /// Network fan-out hook: with a sink installed, event lines bypass
    /// the hub's own queue and are handed to the sink as they are
    /// collected (already formatted and session-tagged), together with
    /// the emitting session's identity so a server can fan them out
    /// per-connection under each connection's ACL.
    using EventSink =
        std::function<void(int session_id, std::string_view session_name,
                           const std::string& line)>;
    void set_event_sink(EventSink sink) { event_sink_ = std::move(sink); }

    /// A network server's report, installed by the server: `lines` is
    /// the `session stats net` body (bad-state without a server, so
    /// non-networked transcripts never grow nondeterministic counter
    /// lines) and `publish` writes its totals into a scrape.
    struct NetStatsProvider {
        std::function<std::vector<std::string>()> lines;
        std::function<void(obs::Registry&)> publish;
    };
    void set_net_stats_provider(NetStatsProvider provider) {
        net_stats_provider_ = std::move(provider);
    }

    /// Event lines the hub queue keeps: a client not draining must not
    /// grow memory without bound, so the oldest lines are evicted and
    /// counted in stats().events_dropped.
    static constexpr std::size_t kEventCapacity = 65536;

    [[nodiscard]] const HubStats& stats() const { return stats_; }

    /// This hub's scrape as Prometheus text (what GET /metrics serves).
    [[nodiscard]] std::string prometheus_text();

private:
    struct Verb; ///< one row of the hub verb table (controller.cpp)

    /// The hub-level verbs, dispatched by execute_line (they need the
    /// caller's RouteContext) and listed after the session's in `help`.
    static const std::vector<Verb>& verb_table();

    proto::Response hub_ok(std::vector<std::string> body);
    proto::Response hub_error(proto::ErrorCode code, std::string message);
    proto::Response route(SessionRegistry::Entry& entry, std::string_view line);
    void install(SessionRegistry::Entry& entry, RouteContext& ctx);
    void collect_events(SessionRegistry::Entry& entry);
    void close_entry(SessionRegistry::Entry& entry, RouteContext& ctx);
    /// The session a request names, under `ctx`'s acl: `token` (an id
    /// or name) when given, else the client's current session. Null when
    /// there is none or the acl refuses it, with the error in `refusal`
    /// (uncounted: the caller counts it). `addressed` words an unknown
    /// token as an `@<session>` prefix.
    SessionRegistry::Entry* resolve_session(std::optional<std::string_view> token,
                                            const RouteContext& ctx,
                                            proto::Response& refusal,
                                            bool addressed = false);

    proto::Response cmd_session(const proto::Request& req, RouteContext& ctx);
    proto::Response session_open(const proto::Request& req, RouteContext& ctx);
    proto::Response session_close(const proto::Request& req, RouteContext& ctx);
    proto::Response session_list(const RouteContext& ctx);
    proto::Response session_use(const proto::Request& req, RouteContext& ctx);
    proto::Response session_revive(const proto::Request& req, RouteContext& ctx);
    proto::Response session_stats();
    proto::Response session_stats_net();
    proto::Response session_stats_shards();
    proto::Response cmd_attach(const proto::Request& req, RouteContext& ctx);
    proto::Response cmd_acl(const proto::Request& req, RouteContext& ctx);
    proto::Response cmd_campaign(const proto::Request& req, RouteContext& ctx);
    proto::Response cmd_metrics(const proto::Request& req, RouteContext& ctx);
    void publish_metrics(obs::Registry& reg);

    SessionRegistry registry_;
    ShardedScheduler scheduler_;
    RouteContext root_;
    bool multi_ = false;
    HubStats stats_;
    /// Built once (not per `run`) and handed to every pump: collects a
    /// session's events after each slice. Runs on scheduler worker
    /// threads when the fleet is sharded, hence the event mutex below.
    ShardedScheduler::SliceHook slice_hook_ = [this](SessionRegistry::Entry& pumped) {
        collect_events(pumped);
    };
    /// Guards the hub event queue, its drop counter, and the event
    /// sink call — the MPSC surface worker threads publish into.
    std::mutex event_mu_;
    std::deque<std::string> event_lines_;
    EventSink event_sink_;
    NetStatsProvider net_stats_provider_;
    /// Last `campaign run` result (for `campaign report`); null until
    /// a campaign has run on this hub.
    std::unique_ptr<campaign::CampaignReport> last_campaign_;
};

} // namespace gmdf::hub
