#include "proto/controller.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "comdes/metamodel.hpp"
#include "core/names.hpp"
#include "core/session.hpp"
#include "expr/parser.hpp"
#include "obs/trace.hpp"
#include "replay/timeline.hpp"

namespace gmdf::proto {

namespace {

constexpr std::size_t kMaxQueuedEvents = 4096;

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> out;
    std::string line;
    for (char c : text) {
        if (c == '\n') {
            out.push_back(line);
            line.clear();
        } else {
            line.push_back(c);
        }
    }
    if (!line.empty()) out.push_back(line);
    return out;
}

Response bad_args(const std::string& usage) {
    return Response::make_error(ErrorCode::BadArgument, "usage: " + usage);
}

/// Parses a finite number token in full; nullopt on junk (incl. nan/inf).
std::optional<double> parse_number(const std::string& token) {
    if (token.empty()) return std::nullopt;
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) return std::nullopt;
    return v;
}

/// Parses a non-negative integer token in full; nullopt on junk —
/// including fractional input, so "remove 1.9" cannot silently act on
/// breakpoint 1.
std::optional<std::uint64_t> parse_index(const std::string& token) {
    if (token.empty()) return std::nullopt;
    std::uint64_t v = 0;
    for (char c : token) {
        if (c < '0' || c > '9') return std::nullopt;
        auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            return std::nullopt; // overflow would wrap to a different index
        v = v * 10 + digit;
    }
    return v;
}

/// The COMDES metaclass to resolve against, or null for generic models.
const meta::MetaClass* comdes_class(const meta::Model& design,
                                    const meta::MetaClass* cls) {
    const auto& c = comdes::comdes_metamodel();
    return &design.metamodel() == &c.mm ? cls : nullptr;
}

/// Resolves an element argument: "#<id>" (any model) or a name looked up
/// under `cls` (COMDES models; any named element when cls is null).
const meta::MObject* resolve_element(const meta::Model& design,
                                     const meta::MetaClass* cls,
                                     const std::string& token) {
    if (!token.empty() && token.front() == '#') {
        auto raw = parse_index(token.substr(1));
        if (!raw.has_value()) return nullptr;
        const meta::MObject* obj = design.get(meta::ObjectId{*raw});
        if (obj != nullptr && cls != nullptr && !obj->meta_class().is_subtype_of(*cls))
            return nullptr;
        return obj;
    }
    if (cls != nullptr) return design.find_named(*cls, token);
    for (meta::ObjectId id : design.ids()) {
        const meta::MObject& obj = design.at(id);
        if (obj.name() == token) return &obj;
    }
    return nullptr;
}

std::string breakpoint_line(const meta::Model& design, int handle,
                            const core::Breakpoint& bp) {
    std::ostringstream os;
    os << "breakpoint " << handle << " " << core::to_string(bp.kind) << " ";
    if (bp.kind == core::Breakpoint::Kind::SignalPredicate)
        os << quote_token(bp.predicate);
    else
        os << core::element_label(design, bp.element.raw);
    if (!bp.enabled) os << " disabled";
    if (bp.one_shot) os << " once";
    return os.str();
}

/// Registers each dispatchable row's proto.request_ns{verb} histogram.
std::vector<SessionController::Verb> with_histograms(
    std::vector<SessionController::Verb> rows) {
    for (SessionController::Verb& row : rows)
        if (row.handler != nullptr)
            row.latency = &obs::registry().histogram("proto.request_ns", "verb", row.verb);
    return rows;
}

} // namespace

const std::vector<SessionController::Verb>& SessionController::verb_table() {
    using C = SessionController;
    static const std::vector<Verb> table = with_histograms({
        {"help", "help [verb]", "list commands (or one verb's forms)", &C::cmd_help},
        {"info", "info", "session summary: model, GDM, engine, transports", &C::cmd_info},
        {"run", "run <ms>", "advance the attached target by <ms> milliseconds",
         &C::cmd_run},
        {"pause", "pause", "halt the target at the next opportunity", &C::cmd_pause},
        {"resume", "resume", "resume a paused target", &C::cmd_resume},
        {"step", "step [actor]",
         "run one task release then pause again; [actor] also sets the "
         "step filter (see step-filter)",
         &C::cmd_step},
        {"step-filter", "step-filter [actor]",
         "restrict stepping to one actor (no arg: any)", &C::cmd_step_filter},
        {"break", "break add state|transition <element> [once]",
         "pause when the state is entered / the transition fires", &C::cmd_break},
        {"break", "break add signal <predicate> [once]",
         "pause when the signal expression becomes true", nullptr},
        {"break", "break remove <handle>", "delete one breakpoint", nullptr},
        {"break", "break list", "list breakpoints", nullptr},
        {"query", "query signal <name>", "last observed value of a signal",
         &C::cmd_query},
        {"query", "query state <machine>", "current state of a state machine", nullptr},
        {"query", "query stats", "engine, protocol, and transport counters", nullptr},
        {"query", "query divergences",
         "model/implementation divergences detected so far", nullptr},
        {"render", "render ascii|svg", "render the current animation frame",
         &C::cmd_render},
        {"trace", "trace vcd|timing [columns]",
         "export the recorded trace (VCD dump / ASCII timing diagram)", &C::cmd_trace},
        {"trace", "trace profile start|stop|dump <file>",
         "profile the debugger itself: capture obs spans, export Chrome trace"
         " JSON (Perfetto)",
         nullptr},
        {"replay", "replay [stride]",
         "re-animate the recorded trace; shows the final frame", &C::cmd_replay},
        {"checkpoint", "checkpoint now", "capture a full-state checkpoint",
         &C::cmd_checkpoint},
        {"checkpoint", "checkpoint list", "list checkpoints and ring stats", nullptr},
        {"checkpoint", "checkpoint auto <ms>",
         "capture automatically every <ms> of sim time (0 disables)", nullptr},
        {"checkpoint", "checkpoint limit <bytes>",
         "byte budget of the checkpoint ring (oldest evicted)", nullptr},
        {"rewind", "rewind <ms>",
         "time-travel: restore the session to an earlier sim time", &C::cmd_rewind},
        {"step-back", "step-back [n]",
         "rewind to just before the n-th most recent event (default 1)",
         &C::cmd_step_back},
        {"bisect", "bisect",
         "binary-search the timeline for the first step that diverges from "
         "the design model or the recorded trace",
         &C::cmd_bisect},
        {"quit", "quit", "end the session", &C::cmd_quit},
    });
    return table;
}

SessionController::SessionController(core::DebugSession& session) : session_(&session) {
    // The first construction builds the verb table and with it every
    // verb's histogram, so a scrape lists them before any request.
    (void)verb_table();
    session_->engine().add_observer(this);
}

SessionController::~SessionController() { session_->engine().remove_observer(this); }

Response SessionController::execute(const Request& req) {
    session_->engine().note_request();
    Response resp = dispatch(req);
    if (!resp.ok()) session_->engine().note_request_error();
    return resp;
}

Response SessionController::dispatch(const Request& req) {
    const Verb* row = find_verb(verb_table(), req.verb);
    if (row == nullptr)
        return Response::make_error(ErrorCode::UnknownVerb,
                                    "unknown verb '" + req.verb + "' (try 'help')");
    // One relaxed load gates the whole instrumentation block; with metrics
    // off the dispatch path is byte-for-byte the uninstrumented one.
    const bool timed = obs::metrics_enabled();
    const auto begin = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
    obs::Span span("proto", "dispatch:", req.verb);
    Response resp;
    try {
        resp = (this->*row->handler)(req);
    } catch (const std::exception& e) {
        resp = Response::make_error(ErrorCode::Internal, req.verb + " failed: " + e.what());
    } catch (...) {
        resp = Response::make_error(ErrorCode::Internal, req.verb + " failed");
    }
    if (timed)
        row->latency->record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - begin)
                .count()));
    return resp;
}

Response SessionController::execute_line(std::string_view line) {
    ParseResult parsed = parse_request(line);
    if (!parsed.ok()) {
        session_->engine().note_request();
        session_->engine().note_request_error();
        return Response::make_error(ErrorCode::BadRequest, parsed.error);
    }
    return execute(*parsed.request);
}

std::vector<Event> SessionController::drain_events() {
    std::vector<Event> out(events_.begin(), events_.end());
    events_.clear();
    return out;
}

std::uint64_t SessionController::dropped_events() const {
    return session_->engine().stats().events_dropped;
}

void SessionController::push_event(Event ev) {
    if (events_.size() >= kMaxQueuedEvents) {
        events_.pop_front();
        session_->engine().note_event_dropped();
    }
    events_.push_back(std::move(ev));
    session_->engine().note_event();
}

void SessionController::on_breakpoint_hit(int handle, const core::Breakpoint& bp,
                                          const link::Command& cmd, rt::SimTime t) {
    std::ostringstream os;
    os << "handle=" << handle << " " << core::to_string(bp.kind) << " ";
    if (bp.kind == core::Breakpoint::Kind::SignalPredicate)
        os << quote_token(bp.predicate);
    else
        os << core::element_label(session_->design(), bp.element.raw);
    os << " cmd=" << cmd.to_string();
    push_event({Event::Kind::BreakpointHit, t, os.str()});
}

void SessionController::on_divergence(const core::Divergence& d) {
    push_event({Event::Kind::Divergence, d.t, d.message});
}

void SessionController::on_state_change(core::EngineState from, core::EngineState to) {
    push_event({Event::Kind::StateChange, std::nullopt,
                std::string(core::to_string(from)) + " -> " + core::to_string(to)});
}

// ---- handlers ---------------------------------------------------------------

Response SessionController::cmd_help(const Request& req) {
    if (req.args.size() > 1) return bad_args("help [verb]");
    if (req.args.empty()) return Response::make_ok(help_lines(verb_table()));
    auto lines = help_lines(verb_table(), req.args[0]);
    if (lines.empty())
        return Response::make_error(ErrorCode::NotFound,
                                    "no verb '" + req.args[0] + "'");
    return Response::make_ok(std::move(lines));
}

Response SessionController::cmd_info(const Request& req) {
    if (!req.args.empty()) return bad_args("info");
    const auto& design = session_->design();
    const auto& abs = session_->abstraction();
    std::vector<std::string> body;
    std::string model_name = "(unnamed)";
    for (meta::ObjectId id : design.ids()) {
        if (design.container_of(id) == nullptr && !design.at(id).name().empty()) {
            model_name = design.at(id).name();
            break;
        }
    }
    body.push_back("model " + model_name);
    body.push_back("elements " + std::to_string(design.size()));
    body.push_back("gdm nodes=" + std::to_string(abs.mapped_nodes) +
                   " edges=" + std::to_string(abs.mapped_edges));
    body.push_back(std::string("engine ") + core::to_string(session_->engine().state()));
    std::string transports;
    for (const auto& t : session_->transports()) {
        if (!transports.empty()) transports += ",";
        transports += t->name();
    }
    body.push_back("transports " + (transports.empty() ? "(none)" : transports));
    body.push_back("breakpoints " + std::to_string(session_->engine().breakpoints().size()));
    const auto& filter = session_->engine().step_filter();
    body.push_back("step-filter " + (filter.any() ? "any" : filter.actor));
    return Response::make_ok(std::move(body));
}

Response SessionController::cmd_run(const Request& req) {
    if (req.args.size() != 1) return bad_args("run <ms>");
    auto ms = parse_number(req.args[0]);
    // The upper bound keeps ms * 1e6 representable as SimTime ns — a
    // float-to-int cast out of range is UB, not a saturation.
    if (!ms.has_value() || *ms <= 0 ||
        *ms * 1e6 >= static_cast<double>(std::numeric_limits<rt::SimTime>::max()))
        return Response::make_error(ErrorCode::BadArgument,
                                    "'" + req.args[0] + "' is not a positive duration");
    if (!run_hook_)
        return Response::make_error(ErrorCode::BadState,
                                    "no target clock attached (run hook unset)");
    run_hook_(static_cast<rt::SimTime>(*ms * 1e6));
    return Response::make_ok(
        {"ran " + req.args[0] + " ms",
         std::string("engine ") + core::to_string(session_->engine().state())});
}

Response SessionController::cmd_pause(const Request& req) {
    if (!req.args.empty()) return bad_args("pause");
    if (session_->engine().state() == core::EngineState::Paused)
        return Response::make_error(ErrorCode::BadState, "already paused");
    session_->engine().pause();
    if (timeline_ != nullptr) timeline_->note_pause();
    return Response::make_ok({"engine paused"});
}

Response SessionController::cmd_resume(const Request& req) {
    if (!req.args.empty()) return bad_args("resume");
    if (session_->engine().state() != core::EngineState::Paused)
        return Response::make_error(ErrorCode::BadState, "not paused");
    session_->engine().resume();
    if (timeline_ != nullptr) timeline_->note_resume();
    return Response::make_ok({"engine animating"});
}

Response SessionController::cmd_step(const Request& req) {
    if (req.args.size() > 1) return bad_args("step [actor]");
    if (session_->engine().state() != core::EngineState::Paused)
        return Response::make_error(ErrorCode::BadState,
                                    "not paused (set a breakpoint or 'pause' first)");
    if (!req.args.empty()) {
        session_->engine().set_step_filter({req.args[0]});
        if (timeline_ != nullptr) timeline_->note_step_filter(req.args[0]);
    }
    session_->engine().step();
    if (timeline_ != nullptr) timeline_->note_step();
    const auto& filter = session_->engine().step_filter();
    return Response::make_ok(
        {"stepping " + (filter.any() ? "any task" : filter.actor)});
}

Response SessionController::cmd_step_filter(const Request& req) {
    if (req.args.size() > 1) return bad_args("step-filter [actor]");
    session_->engine().set_step_filter(
        req.args.empty() ? link::StepFilter{} : link::StepFilter{req.args[0]});
    if (timeline_ != nullptr)
        timeline_->note_step_filter(req.args.empty() ? std::string{} : req.args[0]);
    const auto& filter = session_->engine().step_filter();
    return Response::make_ok({"step-filter " + (filter.any() ? "any" : filter.actor)});
}

Response SessionController::cmd_break(const Request& req) {
    const auto& design = session_->design();
    auto& engine = session_->engine();
    const auto& c = comdes::comdes_metamodel();
    if (req.args.empty())
        return bad_args("break add|remove|list ...");
    const std::string& sub = req.args[0];

    if (sub == "list") {
        if (req.args.size() != 1) return bad_args("break list");
        std::vector<std::string> body;
        for (const auto& [handle, bp] : engine.breakpoints())
            body.push_back(breakpoint_line(design, handle, bp));
        if (body.empty()) body.push_back("(no breakpoints)");
        return Response::make_ok(std::move(body));
    }

    if (sub == "remove") {
        if (req.args.size() != 2) return bad_args("break remove <handle>");
        auto handle = parse_index(req.args[1]);
        if (!handle.has_value())
            return Response::make_error(ErrorCode::BadArgument,
                                        "'" + req.args[1] + "' is not a handle");
        if (*handle > static_cast<std::uint64_t>(std::numeric_limits<int>::max()) ||
            !engine.remove_breakpoint(static_cast<int>(*handle)))
            return Response::make_error(ErrorCode::NotFound,
                                        "no breakpoint " + req.args[1]);
        if (timeline_ != nullptr)
            timeline_->note_break_remove(static_cast<int>(*handle));
        return Response::make_ok({"breakpoint " + req.args[1] + " removed"});
    }

    if (sub == "add") {
        if (req.args.size() < 3 || req.args.size() > 4 ||
            (req.args.size() == 4 && req.args[3] != "once"))
            return bad_args("break add state|transition|signal <target> [once]");
        const std::string& kind = req.args[1];
        const std::string& target = req.args[2];
        bool once = req.args.size() == 4;
        core::Breakpoint bp;
        bp.one_shot = once;
        if (kind == "state" || kind == "transition") {
            const meta::MetaClass* cls =
                comdes_class(design, kind == "state" ? c.state : c.transition);
            const meta::MObject* obj = resolve_element(design, cls, target);
            if (obj == nullptr)
                return Response::make_error(ErrorCode::NotFound,
                                            "no " + kind + " '" + target + "'");
            bp.kind = kind == "state" ? core::Breakpoint::Kind::StateEnter
                                      : core::Breakpoint::Kind::TransitionFired;
            bp.element = obj->id();
        } else if (kind == "signal") {
            try {
                (void)expr::parse(target);
            } catch (const std::exception& e) {
                return Response::make_error(ErrorCode::BadArgument,
                                            std::string("bad predicate: ") + e.what());
            }
            bp.kind = core::Breakpoint::Kind::SignalPredicate;
            bp.predicate = target;
        } else {
            return bad_args("break add state|transition|signal <target> [once]");
        }
        int handle = engine.add_breakpoint(bp);
        if (timeline_ != nullptr) timeline_->note_break_add(handle, bp);
        return Response::make_ok({breakpoint_line(design, handle, bp)});
    }

    return bad_args("break add|remove|list ...");
}

Response SessionController::cmd_query(const Request& req) {
    const auto& design = session_->design();
    const auto& engine = session_->engine();
    const auto& c = comdes::comdes_metamodel();
    if (req.args.empty()) return bad_args("query signal|state|stats|divergences ...");
    const std::string& sub = req.args[0];

    if (sub == "signal") {
        if (req.args.size() != 2) return bad_args("query signal <name>");
        const meta::MObject* sig =
            resolve_element(design, comdes_class(design, c.signal), req.args[1]);
        if (sig == nullptr)
            return Response::make_error(ErrorCode::NotFound,
                                        "no signal '" + req.args[1] + "'");
        std::string label = core::element_label(design, sig->id().raw);
        auto value = engine.signal_value(sig->id());
        if (!value.has_value())
            return Response::make_ok({"signal " + label + " unobserved"});
        return Response::make_ok({"signal " + label + " = " + core::value_label(*value)});
    }

    if (sub == "state") {
        if (req.args.size() != 2) return bad_args("query state <machine>");
        const meta::MObject* sm =
            resolve_element(design, comdes_class(design, c.sm_fb), req.args[1]);
        if (sm == nullptr)
            return Response::make_error(ErrorCode::NotFound,
                                        "no state machine '" + req.args[1] + "'");
        std::string label = core::element_label(design, sm->id().raw);
        auto state = engine.current_state(sm->id());
        if (!state.has_value())
            return Response::make_ok({"machine " + label + " unobserved"});
        return Response::make_ok({"machine " + label + " in " +
                                  core::element_label(design, state->raw)});
    }

    if (sub == "stats") {
        if (req.args.size() != 1) return bad_args("query stats");
        const auto& s = engine.stats();
        std::vector<std::string> body = {
            "commands " + std::to_string(s.commands),
            "reactions " + std::to_string(s.reactions),
            "breakpoints-hit " + std::to_string(s.breakpoints_hit),
            "divergences " + std::to_string(s.divergences),
            "requests " + std::to_string(s.requests),
            "request-errors " + std::to_string(s.request_errors),
            "events-emitted " + std::to_string(s.events_emitted),
            "events-dropped " + std::to_string(s.events_dropped),
        };
        for (const auto& t : session_->transports()) {
            const auto ts = t->stats();
            body.push_back(std::string("transport ") + t->name() + " commands=" +
                           std::to_string(ts.commands) + " corrupt=" +
                           std::to_string(ts.corrupt_frames) + " polls=" +
                           std::to_string(ts.polls));
        }
        // Bounded-ring drop lines follow the cmd_trace convention:
        // silent until something was actually evicted, so unbounded and
        // quiet sessions keep their exact historical transcripts.
        const core::DivergenceLog& dlog = session_->divergence_log();
        if (dlog.dropped() > 0)
            body.push_back("divergence-ring dropped " +
                           std::to_string(dlog.dropped()) +
                           " oldest entries (capacity " +
                           std::to_string(dlog.capacity()) + ")");
        if (timeline_ != nullptr && timeline_->journal_dropped() > 0)
            body.push_back("journal-ring dropped " +
                           std::to_string(timeline_->journal_dropped()) +
                           " oldest entries (capacity " +
                           std::to_string(timeline_->journal_capacity()) + ")");
        return Response::make_ok(std::move(body));
    }

    if (sub == "divergences") {
        if (req.args.size() != 1) return bad_args("query divergences");
        const auto& divs = session_->divergences();
        std::vector<std::string> body = {"divergences " + std::to_string(divs.size())};
        for (const auto& d : divs)
            body.push_back("@" + std::to_string(d.t) + "ns " + d.message);
        return Response::make_ok(std::move(body));
    }

    return bad_args("query signal|state|stats|divergences ...");
}

Response SessionController::cmd_render(const Request& req) {
    if (req.args.size() != 1) return bad_args("render ascii|svg");
    if (req.args[0] == "ascii")
        return Response::make_ok(split_lines(session_->render_ascii()));
    if (req.args[0] == "svg")
        return Response::make_ok(split_lines(session_->render_svg()));
    return bad_args("render ascii|svg");
}

Response SessionController::cmd_trace(const Request& req) {
    // Bounded recorders evict the oldest events; say so ahead of any
    // export built from the surviving window. (Silent with no drops, so
    // unbounded sessions keep their exact historical transcripts.)
    auto export_ok = [this](const std::string& text) {
        std::vector<std::string> body;
        if (session_->trace().dropped() > 0)
            body.push_back("(trace ring dropped " +
                           std::to_string(session_->trace().dropped()) +
                           " oldest events; capacity " +
                           std::to_string(session_->trace().capacity()) + ")");
        auto lines = split_lines(text);
        body.insert(body.end(), lines.begin(), lines.end());
        return Response::make_ok(std::move(body));
    };

    if (req.args.empty()) return bad_args("trace vcd|timing [columns]");
    if (req.args[0] == "profile") return cmd_trace_profile(req);
    if (req.args[0] == "vcd") {
        if (req.args.size() != 1) return bad_args("trace vcd");
        return export_ok(session_->vcd());
    }
    if (req.args[0] == "timing") {
        if (req.args.size() > 2) return bad_args("trace timing [columns]");
        std::size_t columns = 64;
        if (req.args.size() == 2) {
            auto n = parse_index(req.args[1]);
            if (!n.has_value() || *n < 8)
                return Response::make_error(ErrorCode::BadArgument,
                                            "'" + req.args[1] +
                                                "' is not a column count (>= 8)");
            columns = static_cast<std::size_t>(*n);
        }
        return export_ok(session_->timing_diagram().render_ascii(columns));
    }
    return bad_args("trace vcd|timing [columns]");
}

// The *debugger's own* profiler, not the target's trace: wall-clock spans
// (dispatch, pump slices, checkpoint capture/restore) captured by
// gmdf::obs and dumped as Chrome trace-event JSON for Perfetto. Span
// counts and wall timings are nondeterministic by nature, so none of
// these subverbs appear in golden transcripts.
Response SessionController::cmd_trace_profile(const Request& req) {
    const std::string usage = "trace profile start|stop|dump <file>";
    if (req.args.size() < 2) return bad_args(usage);
    const std::string& sub = req.args[1];
    if (sub == "start") {
        if (req.args.size() != 2) return bad_args("trace profile start");
        obs::tracer().start();
        return Response::make_ok({"trace profile started (spans recording; 'trace "
                                  "profile dump <file>' exports Chrome trace JSON)"});
    }
    if (sub == "stop") {
        if (req.args.size() != 2) return bad_args("trace profile stop");
        if (!obs::tracer().enabled())
            return Response::make_error(ErrorCode::BadState,
                                        "trace profile is not running");
        obs::tracer().stop();
        std::vector<std::string> body = {
            "trace profile stopped (" + std::to_string(obs::tracer().event_count()) +
            " spans captured)"};
        if (obs::tracer().dropped() > 0)
            body.push_back("(span ring dropped " +
                           std::to_string(obs::tracer().dropped()) +
                           " oldest spans)");
        return Response::make_ok(std::move(body));
    }
    if (sub == "dump") {
        if (req.args.size() != 3) return bad_args("trace profile dump <file>");
        std::ofstream out(req.args[2], std::ios::binary);
        if (!out)
            return Response::make_error(ErrorCode::BadState,
                                        "cannot open '" + req.args[2] + "' for writing");
        obs::tracer().write_chrome_json(out);
        return Response::make_ok(
            {"trace profile wrote " + req.args[2] + " (" +
             std::to_string(obs::tracer().event_count()) + " spans)"});
    }
    return bad_args(usage);
}

Response SessionController::cmd_replay(const Request& req) {
    if (req.args.size() > 1) return bad_args("replay [stride]");
    std::size_t stride = 1;
    if (!req.args.empty()) {
        auto n = parse_index(req.args[0]);
        if (!n.has_value() || *n < 1)
            return Response::make_error(ErrorCode::BadArgument,
                                        "'" + req.args[0] + "' is not a stride (>= 1)");
        stride = static_cast<std::size_t>(*n);
    }
    auto frames = session_->replay_frames(stride);
    std::vector<std::string> body = {"replay " + std::to_string(frames.size()) +
                                     " frames (stride " + std::to_string(stride) + ")"};
    if (!frames.empty()) {
        auto last = split_lines(frames.back());
        body.insert(body.end(), last.begin(), last.end());
    }
    return Response::make_ok(std::move(body));
}

namespace {

Response no_timeline() {
    return Response::make_error(
        ErrorCode::BadState,
        "time travel is not available for this session (no timeline attached)");
}

/// Maps a timeline refusal onto the wire: the error class plus, for
/// out-of-range, the reachable window so the client can retarget.
Response nav_error(const replay::NavError& err) {
    std::string msg = err.detail;
    if (err.kind == replay::NavError::Kind::OutOfRange && err.earliest >= 0)
        msg += "; reachable window [" + std::to_string(err.earliest) + "ns, " +
               std::to_string(err.latest) + "ns]";
    switch (err.kind) {
    case replay::NavError::Kind::NotDeterministic:
    case replay::NavError::Kind::EmptyTrace:
        return Response::make_error(ErrorCode::BadState, std::move(msg));
    case replay::NavError::Kind::NoCheckpoint:
        return Response::make_error(ErrorCode::BadState, std::move(msg));
    case replay::NavError::Kind::OutOfRange:
        return Response::make_error(ErrorCode::BadArgument, std::move(msg));
    }
    return Response::make_error(ErrorCode::Internal, std::move(msg));
}

} // namespace

Response SessionController::cmd_checkpoint(const Request& req) {
    if (timeline_ == nullptr) return no_timeline();
    if (req.args.empty()) return bad_args("checkpoint now|list|auto <ms>|limit <bytes>");
    const std::string& sub = req.args[0];

    if (sub == "now") {
        if (req.args.size() != 1) return bad_args("checkpoint now");
        std::string error;
        const replay::Checkpoint* cp = timeline_->capture_now(&error);
        if (cp == nullptr) return Response::make_error(ErrorCode::BadState, error);
        auto stats = timeline_->store().stats();
        return Response::make_ok(
            {"checkpoint @" + std::to_string(cp->snap.time) + "ns " +
             std::to_string(cp->snap.size_bytes()) + " bytes (" +
             std::to_string(stats.count) + " held)"});
    }

    if (sub == "list") {
        if (req.args.size() != 1) return bad_args("checkpoint list");
        auto stats = timeline_->store().stats();
        std::vector<std::string> body;
        body.push_back("checkpoints " + std::to_string(stats.count) + " holding " +
                       std::to_string(stats.bytes) + " bytes (limit " +
                       std::to_string(stats.byte_limit) + ", evicted " +
                       std::to_string(stats.evictions) + ")");
        body.push_back(timeline_->auto_period() > 0
                           ? "auto every " +
                                 std::to_string(timeline_->auto_period() / rt::kMs) +
                                 " ms"
                           : "auto off");
        std::size_t i = 0;
        for (const replay::Checkpoint& cp : timeline_->store().entries())
            body.push_back(std::to_string(i++) + " @" + std::to_string(cp.snap.time) +
                           "ns " + std::to_string(cp.snap.size_bytes()) + " bytes");
        return Response::make_ok(std::move(body));
    }

    if (sub == "auto") {
        if (req.args.size() != 2) return bad_args("checkpoint auto <ms>");
        auto ms = parse_number(req.args[1]);
        if (!ms.has_value() || *ms < 0 ||
            *ms * 1e6 >= static_cast<double>(std::numeric_limits<rt::SimTime>::max()))
            return Response::make_error(ErrorCode::BadArgument,
                                        "'" + req.args[1] +
                                            "' is not a cadence in ms (>= 0)");
        timeline_->set_auto_period(static_cast<rt::SimTime>(*ms * 1e6));
        return Response::make_ok({*ms == 0
                                      ? std::string("checkpoint auto off")
                                      : "checkpoint auto every " + req.args[1] + " ms"});
    }

    if (sub == "limit") {
        if (req.args.size() != 2) return bad_args("checkpoint limit <bytes>");
        auto bytes = parse_index(req.args[1]);
        if (!bytes.has_value() || *bytes == 0)
            return Response::make_error(ErrorCode::BadArgument,
                                        "'" + req.args[1] +
                                            "' is not a byte budget (>= 1)");
        timeline_->set_byte_limit(static_cast<std::size_t>(*bytes));
        return Response::make_ok({"checkpoint limit " + req.args[1] + " bytes"});
    }

    return bad_args("checkpoint now|list|auto <ms>|limit <bytes>");
}

Response SessionController::cmd_rewind(const Request& req) {
    if (timeline_ == nullptr) return no_timeline();
    if (req.args.size() != 1) return bad_args("rewind <ms>");
    auto ms = parse_number(req.args[0]);
    if (!ms.has_value() || *ms < 0 ||
        *ms * 1e6 >= static_cast<double>(std::numeric_limits<rt::SimTime>::max()))
        return Response::make_error(ErrorCode::BadArgument,
                                    "'" + req.args[0] + "' is not a time in ms (>= 0)");
    auto t = static_cast<rt::SimTime>(*ms * 1e6);
    if (auto err = timeline_->rewind_to(t); err.has_value()) return nav_error(*err);
    return Response::make_ok(
        {"rewound to " + req.args[0] + " ms",
         std::string("engine ") + core::to_string(session_->engine().state())});
}

Response SessionController::cmd_step_back(const Request& req) {
    if (timeline_ == nullptr) return no_timeline();
    if (req.args.size() > 1) return bad_args("step-back [n]");
    std::size_t n = 1;
    if (!req.args.empty()) {
        auto parsed = parse_index(req.args[0]);
        if (!parsed.has_value() || *parsed < 1)
            return Response::make_error(ErrorCode::BadArgument,
                                        "'" + req.args[0] + "' is not a count (>= 1)");
        n = static_cast<std::size_t>(*parsed);
    }
    if (auto err = timeline_->step_back(n); err.has_value()) return nav_error(*err);
    return Response::make_ok(
        {"stepped back " + std::to_string(n) + " event(s)",
         "now @" + std::to_string(timeline_->now()) + "ns",
         std::string("engine ") + core::to_string(session_->engine().state())});
}

Response SessionController::cmd_bisect(const Request& req) {
    if (timeline_ == nullptr) return no_timeline();
    if (!req.args.empty()) return bad_args("bisect");
    replay::BisectResult res = timeline_->bisect();
    if (!res.error.empty())
        return Response::make_error(ErrorCode::BadState, res.error);
    std::vector<std::string> body = {
        "bisect searched " + std::to_string(res.steps_searched) + " steps in " +
        std::to_string(res.probes) + " probes"};
    if (!res.found) {
        body.push_back("no divergence: re-execution matches the recorded trace");
    } else {
        body.push_back("first divergent step " + std::to_string(res.step) + " @" +
                       std::to_string(res.t) + "ns " + res.command);
        body.push_back(res.reason);
    }
    return Response::make_ok(std::move(body));
}

Response SessionController::cmd_quit(const Request& req) {
    if (!req.args.empty()) return bad_args("quit");
    return Response::make_ok({"bye"});
}

} // namespace gmdf::proto
