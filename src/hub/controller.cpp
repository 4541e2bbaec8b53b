#include "hub/controller.hpp"

#include <algorithm>
#include <iterator>
#include <string>

#include "campaign/runner.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "proto/controller.hpp"
#include "proto/message.hpp"

namespace gmdf::hub {

namespace {

std::string_view first_token(std::string_view line) {
    std::size_t end = line.find_first_of(" \t");
    return end == std::string_view::npos ? line : line.substr(0, end);
}

std::string_view skip_blanks(std::string_view line) {
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
        line.remove_prefix(1);
    return line;
}

std::string entry_line(SessionRegistry::Entry& e, bool is_current) {
    std::string line = std::string(is_current ? "* " : "  ") + std::to_string(e.id) +
                       " " + e.name + " scenario=" + e.scenario->name + " engine=" +
                       core::to_string(e.session().engine().state());
    // Quarantine is the only state that may reshape a list row: healthy
    // fleets keep their existing transcripts byte-identical.
    if (e.faulted()) {
        line += e.runaway ? " FAULTED(runaway): " : " FAULTED: ";
        line += e.fault_reason;
    }
    return line;
}

} // namespace

// One row of the hub verb table; the shape proto::find_verb and
// proto::help_lines expect.
struct HubController::Verb {
    std::string_view verb;
    std::string_view usage;
    std::string_view summary;
    proto::Response (HubController::*handler)(const proto::Request&,
                                              RouteContext&); ///< null: doc-only row
};

const std::vector<HubController::Verb>& HubController::verb_table() {
    using H = HubController;
    static const std::vector<Verb> table = {
        {"session", "session open <scenario> [name]",
         "host a new session (becomes current)", &H::cmd_session},
        {"session", "session close [session]", "close a session (default: current)",
         nullptr},
        {"session", "session list", "list hosted sessions", nullptr},
        {"session", "session use <session>", "switch the current session", nullptr},
        {"session", "session revive [session]",
         "lift a faulted session's quarantine (restores its last"
         " checkpoint when a timeline is attached)",
         nullptr},
        {"session", "session stats [net|shards]",
         "hub totals: sessions, scheduler, aggregate engine counters"
         " (net: network server; shards: per-shard pump split)",
         nullptr},
        {"attach", "attach <session>", "switch this client's current session",
         &H::cmd_attach},
        {"acl", "acl allow <session> [...]", "restrict this client to the listed sessions",
         &H::cmd_acl},
        {"acl", "acl clear|show", "lift this client's restriction / show its allowlist",
         nullptr},
        {"campaign", "campaign run <pairs> [seed]",
         "fault-hunt campaign over generated models", &H::cmd_campaign},
        {"campaign", "campaign report", "re-print the last campaign's summary", nullptr},
        {"metrics", "metrics [prefix]",
         "unified obs registry dump: counters, gauges, latency"
         " histograms (optionally filtered by name prefix)",
         &H::cmd_metrics},
    };
    return table;
}

HubController::HubController() { init_slice_hook(); }

HubController::~HubController() = default;

void HubController::publish_metrics(obs::Registry& reg) {
    const auto set = [&reg](std::string_view name, std::uint64_t v) {
        reg.counter(name).set(v);
    };
    reg.gauge("hub.sessions.live").set(static_cast<std::int64_t>(registry_.size()));
    reg.gauge("hub.sessions.faulted").set(static_cast<std::int64_t>(registry_.faulted_count()));
    set("hub.sessions.opened", registry_.opened());
    set("hub.sessions.closed", registry_.closed());
    set("hub.requests", stats_.requests);
    set("hub.request_errors", stats_.request_errors);
    set("hub.events_dropped", stats_.events_dropped);
    // Slices, steals and overruns have their home in the hub.shard.*
    // families below; runaways have no per-shard home.
    set("hub.watchdog.runaways", scheduler_.watchdog_stats().runaways);
    const core::EngineStats total = registry_.aggregate_stats();
    set("engine.commands", total.commands);
    set("engine.reactions", total.reactions);
    set("engine.breakpoints_hit", total.breakpoints_hit);
    set("engine.divergences", total.divergences);
    set("engine.requests", total.requests);
    set("engine.request_errors", total.request_errors);
    set("engine.events_emitted", total.events_emitted);
    set("engine.events_dropped", total.events_dropped);
    const auto& shards = scheduler_.shard_stats();
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardedScheduler::ShardStats& s = shards[i];
        const std::string shard = std::to_string(i);
        const auto sset = [&reg, &shard](std::string_view name, std::uint64_t v) {
            reg.counter(name, "shard", shard).set(v);
        };
        reg.gauge("hub.shard.sessions", "shard", shard).set(s.sessions);
        sset("hub.shard.slices", s.slices);
        sset("hub.shard.advanced_ms", static_cast<std::uint64_t>(s.advanced / rt::kMs));
        sset("hub.shard.steals", s.steals);
        sset("hub.shard.overruns", s.overruns);
        sset("hub.shard.faulted", s.faulted);
    }
    if (net_stats_provider_.publish) net_stats_provider_.publish(reg);
}

std::string HubController::prometheus_text() {
    obs::Registry scoped;
    publish_metrics(scoped);
    return obs::registry().prometheus_text(&scoped);
}

proto::Response HubController::cmd_metrics(const proto::Request& req, RouteContext&) {
    if (req.args.size() > 1)
        return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                           "usage: metrics [prefix]");
    const std::string prefix = req.args.empty() ? std::string() : req.args[0];
    obs::Registry scoped;
    publish_metrics(scoped);
    std::vector<std::string> body = obs::registry().text_dump(prefix, &scoped);
    if (body.empty())
        body.push_back(prefix.empty() ? "(no metrics)"
                                      : "(no metrics match '" + prefix + "')");
    return proto::Response::make_ok(std::move(body));
}

void HubController::init_slice_hook() {
    // One std::function for the hub's lifetime: constructing it per
    // `run` request re-allocated the closure on every pump.
    slice_hook_ = [this](SessionRegistry::Entry& pumped) {
        collect_events(pumped);
        if (pumped.scenario->timeline != nullptr)
            pumped.scenario->timeline->maybe_capture();
    };
}

SessionRegistry::Entry* HubController::open(std::string_view scenario, std::string name,
                                            SessionRegistry::OpenError* error) {
    SessionRegistry::Entry* entry = registry_.open(scenario, std::move(name), error);
    if (entry != nullptr) install(*entry, root_);
    return entry;
}

SessionRegistry::Entry* HubController::adopt(std::unique_ptr<proto::Scenario> scenario,
                                             std::string name,
                                             SessionRegistry::OpenError* error) {
    SessionRegistry::Entry* entry =
        registry_.adopt(std::move(scenario), std::move(name), error);
    if (entry != nullptr) install(*entry, root_);
    return entry;
}

void HubController::install(SessionRegistry::Entry& entry, RouteContext& ctx) {
    // `run` on any hosted session pumps the whole hub: every live
    // session advances concurrently through the scheduler instead of
    // only the addressed session's transports. Each slice also gives the
    // session's timeline a chance to take its cadence checkpoint, so
    // automatic checkpoints stay slice-granular under the hub.
    entry.controller().set_run_hook([this](rt::SimTime duration) {
        scheduler_.pump(registry_, duration, slice_hook_);
    });
    ctx.current = entry.id;
    ctx.opened.push_back(entry.id);
    if (registry_.size() > 1) multi_ = true;
}

void HubController::collect_events(SessionRegistry::Entry& entry) {
    // Runs on scheduler worker threads under a sharded pump — never two
    // workers for the same session (the scheduler holds a session
    // exclusively across its slice + hook), so draining the session's
    // controller queue and formatting need no lock. Publishing into the
    // hub queue / event sink is the MPSC step the mutex serializes;
    // per-session event order is preserved because each session's lines
    // arrive from its single current holder, in drain order.
    auto events = entry.controller().drain_events();
    if (events.empty()) return;
    std::vector<std::string> lines;
    lines.reserve(events.size());
    for (const proto::Event& ev : events) {
        std::string line = proto::format_event(ev);
        if (multi_) line = "[" + entry.name + "] " + line;
        lines.push_back(std::move(line));
    }
    std::lock_guard<std::mutex> lock(event_mu_);
    for (std::string& line : lines) {
        if (event_sink_) {
            // Fan-out mode: the server owns per-connection queues and
            // backpressure; the hub's own queue stays empty. Serialized
            // here so a single-threaded server never sees two workers
            // inside its fan-out at once.
            event_sink_(entry.id, entry.name, line);
            continue;
        }
        if (event_capacity_ != 0 && event_lines_.size() >= event_capacity_) {
            event_lines_.pop_front();
            ++stats_.events_dropped;
        }
        event_lines_.push_back(std::move(line));
    }
}

std::vector<std::string> HubController::drain_event_lines() {
    std::lock_guard<std::mutex> lock(event_mu_);
    std::vector<std::string> out(std::make_move_iterator(event_lines_.begin()),
                                 std::make_move_iterator(event_lines_.end()));
    event_lines_.clear();
    return out;
}

proto::Response HubController::hub_ok(std::vector<std::string> body) {
    ++stats_.requests;
    return proto::Response::make_ok(std::move(body));
}

proto::Response HubController::hub_error(proto::ErrorCode code, std::string message) {
    ++stats_.requests;
    ++stats_.request_errors;
    return proto::Response::make_error(code, std::move(message));
}

proto::Response HubController::acl_denied(const std::string& name) {
    return hub_error(proto::ErrorCode::BadState,
                     "session '" + name + "' is outside this client's acl");
}

proto::Response HubController::route(SessionRegistry::Entry& entry,
                                     std::string_view line) {
    // A quarantined session is refused, not routed: its target state is
    // whatever the crash left behind.
    if (entry.faulted())
        return hub_error(proto::ErrorCode::BadState,
                         "session '" + entry.name + "' is faulted: " +
                             entry.fault_reason +
                             " (see 'session revive' / 'session close')");
    proto::Response resp;
    try {
        resp = entry.controller().execute_line(line);
    } catch (const std::exception& e) {
        // Backstop for exceptions that escape the session controller's
        // own guard: quarantine the session instead of unwinding the hub.
        entry.mark_faulted(e.what());
        resp = proto::Response::make_error(proto::ErrorCode::Internal,
                                           "session '" + entry.name +
                                               "' faulted: " + entry.fault_reason);
    } catch (...) {
        entry.mark_faulted("unknown exception during request");
        resp = proto::Response::make_error(proto::ErrorCode::Internal,
                                           "session '" + entry.name +
                                               "' faulted: " + entry.fault_reason);
    }
    collect_events(entry);
    // The addressed session may have faulted *during* its own request
    // (its target threw inside a scheduler pump, which quarantines it
    // without failing the pump). Surface that in the response instead of
    // letting the client discover it on the next request.
    if (resp.ok() && entry.faulted())
        resp.body.push_back("! session " + entry.name +
                            " faulted: " + entry.fault_reason);
    return resp;
}

proto::Response HubController::execute_line(std::string_view line) {
    return execute_line(line, root_);
}

proto::Response HubController::execute_line(std::string_view line, RouteContext& ctx) {
    // Tolerate untrimmed client lines the way parse_request does —
    // otherwise "  session list" would be mis-routed into a session.
    line = skip_blanks(line);
    SessionRegistry::Entry* entry = nullptr;
    bool addressed = false;
    if (!line.empty() && line.front() == '@') {
        std::size_t space = line.find_first_of(" \t");
        std::string_view tag =
            line.substr(1, space == std::string_view::npos ? std::string_view::npos
                                                           : space - 1);
        if (tag.empty() || space == std::string_view::npos)
            return hub_error(proto::ErrorCode::BadRequest,
                             "usage: @<session> <verb ...>");
        entry = registry_.resolve(tag);
        if (entry == nullptr)
            return hub_error(proto::ErrorCode::NotFound,
                             "no session '@" + std::string(tag) +
                                 "' (see 'session list')");
        if (!ctx.allows(entry->id, entry->name)) return acl_denied(entry->name);
        addressed = true;
        line = skip_blanks(line.substr(space + 1));
        if (line.empty())
            return hub_error(proto::ErrorCode::BadRequest,
                             "usage: @<session> <verb ...>");
    }
    if (!addressed) entry = registry_.find(ctx.current);

    std::string_view verb = first_token(line);
    if (const Verb* row = proto::find_verb(verb_table(), verb)) {
        // Silently dropping the prefix would make '@cell session close'
        // act on the *current* session — refuse instead.
        if (addressed)
            return hub_error(proto::ErrorCode::BadArgument,
                             "hub-level verbs cannot be session-addressed; drop "
                             "the '@<session>' prefix");
        auto parsed = proto::parse_request(line);
        if (!parsed.ok())
            return hub_error(proto::ErrorCode::BadRequest, parsed.error);
        ++stats_.requests;
        proto::Response resp;
        try {
            resp = (this->*row->handler)(*parsed.request, ctx);
        } catch (const std::exception& e) {
            resp = proto::Response::make_error(proto::ErrorCode::Internal,
                                               std::string(verb) + " failed: " +
                                                   e.what());
        } catch (...) {
            resp = proto::Response::make_error(proto::ErrorCode::Internal,
                                               std::string(verb) + " failed");
        }
        if (!resp.ok()) ++stats_.request_errors;
        return resp;
    }

    if (verb == "help") {
        auto parsed = proto::parse_request(line);
        if (parsed.ok()) {
            const auto& args = parsed.request->args;
            if (args.size() == 1 && proto::find_verb(verb_table(), args[0]) != nullptr)
                return hub_ok(proto::help_lines(verb_table(), args[0]));
            if (args.empty()) {
                if (entry == nullptr) return hub_ok(proto::help_lines(verb_table()));
                // One combined listing: the session's verbs, then the
                // hub's session-management rows.
                proto::Response resp = route(*entry, line);
                if (resp.ok())
                    for (std::string& extra : proto::help_lines(verb_table()))
                        resp.body.push_back(std::move(extra));
                return resp;
            }
        }
        // help <verb> / malformed help: route like any other request.
    }

    if (entry == nullptr) {
        if (verb == "quit" || verb == "exit") return hub_ok({"bye"});
        return hub_error(proto::ErrorCode::BadState,
                         "no open session (try 'session open <scenario>')");
    }
    return route(*entry, line);
}

void HubController::release_context(RouteContext& ctx) {
    // Close only what this client opened; sessions hosted by the
    // embedder or other clients are none of its business. close_entry
    // edits ctx.opened, so iterate over a copy.
    std::vector<int> opened = ctx.opened;
    for (int id : opened) {
        SessionRegistry::Entry* entry = registry_.find(id);
        if (entry != nullptr) close_entry(*entry, ctx);
    }
    ctx = RouteContext{};
}

// ---- hub-level verbs --------------------------------------------------------

proto::Response HubController::cmd_session(const proto::Request& req,
                                           RouteContext& ctx) {
    if (req.args.empty())
        return proto::Response::make_error(
            proto::ErrorCode::BadArgument,
            "usage: session open|close|list|use|revive|stats ...");
    const std::string& sub = req.args[0];
    if (sub == "open") return session_open(req, ctx);
    if (sub == "close") return session_close(req, ctx);
    if (sub == "revive") return session_revive(req, ctx);
    if (sub == "list") {
        if (req.args.size() != 1)
            return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                               "usage: session list");
        return session_list(ctx);
    }
    if (sub == "use") return session_use(req, ctx);
    if (sub == "stats") {
        if (req.args.size() == 2 && req.args[1] == "net") return session_stats_net();
        if (req.args.size() == 2 && req.args[1] == "shards")
            return session_stats_shards();
        if (req.args.size() != 1)
            return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                               "usage: session stats [net|shards]");
        return session_stats();
    }
    return proto::Response::make_error(
        proto::ErrorCode::BadArgument,
        "usage: session open|close|list|use|revive|stats ...");
}

proto::Response HubController::session_open(const proto::Request& req,
                                            RouteContext& ctx) {
    if (req.args.size() < 2 || req.args.size() > 3)
        return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                           "usage: session open <scenario> [name]");
    const std::string& scenario = req.args[1];
    const std::string& name = req.args.size() == 3 ? req.args[2] : req.args[1];
    SessionRegistry::OpenError error = SessionRegistry::OpenError::None;
    SessionRegistry::Entry* entry = registry_.open(scenario, name, &error);
    if (entry == nullptr) {
        switch (error) {
        case SessionRegistry::OpenError::BadName:
            return proto::Response::make_error(
                proto::ErrorCode::BadArgument,
                "session name '" + name +
                    "' must be one token of [A-Za-z0-9_-] with a non-digit");
        case SessionRegistry::OpenError::DuplicateName:
            return proto::Response::make_error(proto::ErrorCode::BadState,
                                               "session '" + name + "' already open");
        default:
            return proto::Response::make_error(proto::ErrorCode::NotFound,
                                               "no scenario '" + scenario + "'");
        }
    }
    install(*entry, ctx);
    return proto::Response::make_ok(
        {"session " + std::to_string(entry->id) + " " + entry->name +
             " opened (scenario " + scenario + ")",
         "current " + entry->name});
}

void HubController::close_entry(SessionRegistry::Entry& entry, RouteContext& ctx) {
    int id = entry.id;
    collect_events(entry); // don't lose queued events with the session
    registry_.close(id);
    std::erase(ctx.opened, id);
    if (ctx.current == id)
        ctx.current = registry_.entries().empty() ? 0 : registry_.entries().front()->id;
    // The root REPL must not keep routing into a dead session either.
    if (&ctx != &root_ && root_.current == id)
        root_.current =
            registry_.entries().empty() ? 0 : registry_.entries().front()->id;
}

proto::Response HubController::session_close(const proto::Request& req,
                                             RouteContext& ctx) {
    if (req.args.size() > 2)
        return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                           "usage: session close [session]");
    SessionRegistry::Entry* entry = nullptr;
    if (req.args.size() == 2) {
        entry = registry_.resolve(req.args[1]);
        if (entry == nullptr)
            return proto::Response::make_error(proto::ErrorCode::NotFound,
                                               "no session '" + req.args[1] + "'");
        if (!ctx.allows(entry->id, entry->name))
            return proto::Response::make_error(
                proto::ErrorCode::BadState,
                "session '" + entry->name + "' is outside this client's acl");
    } else {
        entry = registry_.find(ctx.current);
        if (entry == nullptr)
            return proto::Response::make_error(proto::ErrorCode::BadState,
                                               "no open session");
    }
    int id = entry->id;
    std::string name = entry->name;
    close_entry(*entry, ctx);
    std::vector<std::string> body = {"session " + std::to_string(id) + " " + name +
                                     " closed"};
    SessionRegistry::Entry* now_current = registry_.find(ctx.current);
    body.push_back("current " + (now_current ? now_current->name : "(none)"));
    return proto::Response::make_ok(std::move(body));
}

proto::Response HubController::session_list(const RouteContext& ctx) {
    std::vector<std::string> body = {"sessions " +
                                     std::to_string(registry_.size())};
    for (const auto& e : registry_.entries())
        body.push_back(entry_line(*e, e->id == ctx.current));
    return proto::Response::make_ok(std::move(body));
}

proto::Response HubController::session_use(const proto::Request& req,
                                           RouteContext& ctx) {
    if (req.args.size() != 2)
        return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                           "usage: session use <session>");
    SessionRegistry::Entry* entry = registry_.resolve(req.args[1]);
    if (entry == nullptr)
        return proto::Response::make_error(proto::ErrorCode::NotFound,
                                           "no session '" + req.args[1] + "'");
    if (!ctx.allows(entry->id, entry->name))
        return proto::Response::make_error(
            proto::ErrorCode::BadState,
            "session '" + entry->name + "' is outside this client's acl");
    ctx.current = entry->id;
    return proto::Response::make_ok({"current " + entry->name});
}

proto::Response HubController::session_revive(const proto::Request& req,
                                              RouteContext& ctx) {
    if (req.args.size() > 2)
        return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                           "usage: session revive [session]");
    SessionRegistry::Entry* entry = nullptr;
    if (req.args.size() == 2) {
        entry = registry_.resolve(req.args[1]);
        if (entry == nullptr)
            return proto::Response::make_error(proto::ErrorCode::NotFound,
                                               "no session '" + req.args[1] + "'");
        if (!ctx.allows(entry->id, entry->name))
            return proto::Response::make_error(
                proto::ErrorCode::BadState,
                "session '" + entry->name + "' is outside this client's acl");
    } else {
        entry = registry_.find(ctx.current);
        if (entry == nullptr)
            return proto::Response::make_error(proto::ErrorCode::BadState,
                                               "no open session");
    }
    if (!entry->faulted())
        return proto::Response::make_error(
            proto::ErrorCode::BadState,
            "session '" + entry->name + "' is not faulted");

    std::vector<std::string> body = {"session " + std::to_string(entry->id) + " " +
                                     entry->name + " revived (was: " +
                                     entry->fault_reason + ")"};
    replay::Timeline* timeline = entry->scenario->timeline.get();
    std::optional<rt::SimTime> latest;
    if (timeline != nullptr) latest = timeline->store().latest_time();
    if (latest.has_value()) {
        // A timeline gives us a known-good state to restore; without one
        // the session is revived in place — whatever the crash left
        // behind is the operator's problem, and the response says so.
        auto err = timeline->rewind_to(*latest);
        if (err.has_value())
            body.push_back("checkpoint restore refused (" + err->detail +
                           "); revived in place");
        else
            body.push_back("restored checkpoint at " +
                           std::to_string(*latest / rt::kMs) + " ms");
    } else {
        body.push_back("revived in place (no checkpoint to restore)");
    }
    entry->clear_fault();
    return proto::Response::make_ok(std::move(body));
}

proto::Response HubController::session_stats() {
    const core::EngineStats total = registry_.aggregate_stats();
    std::vector<std::string> body = {
        "sessions " + std::to_string(registry_.size()) + " live (opened " +
            std::to_string(registry_.opened()) + ", closed " +
            std::to_string(registry_.closed()) + ")",
        "hub-requests " + std::to_string(stats_.requests),
        "hub-request-errors " + std::to_string(stats_.request_errors),
        "hub-events-dropped " + std::to_string(stats_.events_dropped),
        "scheduler-slices " + std::to_string(scheduler_.total_slices()) + " (budget " +
            std::to_string(scheduler_.budget() / rt::kMs) + " ms)",
        "commands " + std::to_string(total.commands),
        "reactions " + std::to_string(total.reactions),
        "breakpoints-hit " + std::to_string(total.breakpoints_hit),
        "divergences " + std::to_string(total.divergences),
        "requests " + std::to_string(total.requests),
        "request-errors " + std::to_string(total.request_errors),
        "events-emitted " + std::to_string(total.events_emitted),
        "events-dropped " + std::to_string(total.events_dropped),
    };
    // Quarantine lines appear only once something has actually faulted,
    // so healthy hubs keep the fixed 13-line body golden tests pin.
    const std::size_t faulted = registry_.faulted_count();
    if (faulted > 0)
        body.insert(body.begin() + 1, "sessions-faulted " + std::to_string(faulted));
    const WatchdogStats& wd = scheduler_.watchdog_stats();
    if (wd.overruns > 0 || wd.runaways > 0)
        body.push_back("watchdog-overruns " + std::to_string(wd.overruns) +
                       " runaways " + std::to_string(wd.runaways));
    return proto::Response::make_ok(std::move(body));
}

proto::Response HubController::session_stats_net() {
    if (!net_stats_provider_.lines)
        return proto::Response::make_error(proto::ErrorCode::BadState,
                                           "no network server attached");
    return proto::Response::make_ok(net_stats_provider_.lines());
}

proto::Response HubController::session_stats_shards() {
    // Typed bad-state on a single-threaded hub: plain hubs never grow
    // these lines, so existing golden transcripts stay byte-identical.
    if (scheduler_.threads() <= 1)
        return proto::Response::make_error(
            proto::ErrorCode::BadState,
            "scheduler is single-threaded (start with --threads to shard the fleet)");
    const auto& shards = scheduler_.shard_stats();
    std::vector<std::string> body = {
        "shards " + std::to_string(shards.size()) + " (budget " +
        std::to_string(scheduler_.budget() / rt::kMs) + " ms)"};
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const auto& s = shards[i];
        std::string row = "shard " + std::to_string(i) + ": sessions " +
                          std::to_string(s.sessions) + " slices " +
                          std::to_string(s.slices) + " advanced " +
                          std::to_string(s.advanced / rt::kMs) + " ms steals " +
                          std::to_string(s.steals);
        // Fault/watchdog columns only once a shard has seen one, so the
        // fixed 4-line shape shard tests pin survives on healthy hubs.
        if (s.overruns > 0 || s.faulted > 0)
            row += " overruns " + std::to_string(s.overruns) + " faulted " +
                   std::to_string(s.faulted);
        body.push_back(std::move(row));
    }
    body.push_back("steals-total " + std::to_string(scheduler_.total_steals()));
    const WatchdogConfig& wd = scheduler_.watchdog();
    if (wd.enabled()) {
        const WatchdogStats& stats = scheduler_.watchdog_stats();
        body.push_back("watchdog limit " + std::to_string(wd.slice_limit_us) +
                       " us strikes " + std::to_string(wd.max_strikes) +
                       " overruns " + std::to_string(stats.overruns) +
                       " runaways " + std::to_string(stats.runaways));
    }
    return proto::Response::make_ok(std::move(body));
}

proto::Response HubController::cmd_attach(const proto::Request& req,
                                          RouteContext& ctx) {
    if (req.args.size() != 1)
        return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                           "usage: attach <session>");
    SessionRegistry::Entry* entry = registry_.resolve(req.args[0]);
    if (entry == nullptr)
        return proto::Response::make_error(proto::ErrorCode::NotFound,
                                           "no session '" + req.args[0] + "'");
    if (!ctx.allows(entry->id, entry->name))
        return proto::Response::make_error(
            proto::ErrorCode::BadState,
            "session '" + entry->name + "' is outside this client's acl");
    ctx.current = entry->id;
    return proto::Response::make_ok(
        {"attached " + entry->name + " (session " + std::to_string(entry->id) + ")"});
}

proto::Response HubController::cmd_acl(const proto::Request& req, RouteContext& ctx) {
    auto show = [&ctx]() {
        if (!ctx.restricted)
            return proto::Response::make_ok({"acl unrestricted"});
        std::string line = "acl";
        for (const std::string& name : ctx.acl) line += " " + name;
        if (ctx.acl.empty()) line += " (opened sessions only)";
        return proto::Response::make_ok({line});
    };
    if (req.args.empty() || req.args[0] == "show") {
        if (req.args.size() > 1)
            return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                               "usage: acl show");
        return show();
    }
    if (req.args[0] == "clear") {
        if (req.args.size() != 1)
            return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                               "usage: acl clear");
        ctx.restricted = false;
        ctx.acl.clear();
        return show();
    }
    if (req.args[0] == "allow") {
        if (req.args.size() < 2)
            return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                               "usage: acl allow <session> [...]");
        // Names are taken as given (a session may be opened later under
        // an allowed name); ids are rejected because they are only
        // meaningful for live sessions.
        for (std::size_t i = 1; i < req.args.size(); ++i) {
            if (!SessionRegistry::valid_name(req.args[i]))
                return proto::Response::make_error(
                    proto::ErrorCode::BadArgument,
                    "'" + req.args[i] + "' is not a valid session name");
            if (std::find(ctx.acl.begin(), ctx.acl.end(), req.args[i]) ==
                ctx.acl.end())
                ctx.acl.push_back(req.args[i]);
        }
        ctx.restricted = true;
        return show();
    }
    return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                       "usage: acl allow|clear|show ...");
}

proto::Response HubController::cmd_campaign(const proto::Request& req, RouteContext&) {
    if (req.args.size() == 1 && req.args[0] == "report") {
        if (last_campaign_ == nullptr)
            return proto::Response::make_error(
                proto::ErrorCode::BadState,
                "no campaign has run yet (try 'campaign run <pairs>')");
        return proto::Response::make_ok(last_campaign_->summary_lines());
    }
    if (!req.args.empty() && req.args[0] == "run") {
        if (req.args.size() < 2 || req.args.size() > 3)
            return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                               "usage: campaign run <pairs> [seed]");
        auto parse_u32 = [](const std::string& text) -> std::optional<std::uint32_t> {
            if (text.empty() || text.size() > 9) return std::nullopt;
            std::uint32_t v = 0;
            for (char c : text) {
                if (c < '0' || c > '9') return std::nullopt;
                v = v * 10 + static_cast<std::uint32_t>(c - '0');
            }
            return v;
        };
        auto pairs = parse_u32(req.args[1]);
        if (!pairs.has_value() || *pairs < 1 || *pairs > 5000)
            return proto::Response::make_error(
                proto::ErrorCode::BadArgument,
                "pairs '" + req.args[1] + "' must be a count in [1, 5000]");
        campaign::CampaignConfig cfg;
        cfg.pairs = static_cast<int>(*pairs);
        if (req.args.size() == 3) {
            auto seed = parse_u32(req.args[2]);
            if (!seed.has_value())
                return proto::Response::make_error(
                    proto::ErrorCode::BadArgument,
                    "seed '" + req.args[2] + "' must be a non-negative integer");
            cfg.seed = *seed;
        }
        last_campaign_ =
            std::make_unique<campaign::CampaignReport>(campaign::run_campaign(cfg));
        return proto::Response::make_ok(last_campaign_->summary_lines());
    }
    return proto::Response::make_error(proto::ErrorCode::BadArgument,
                                       "usage: campaign run <pairs> [seed] | "
                                       "campaign report");
}

} // namespace gmdf::hub
