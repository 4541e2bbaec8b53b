// Tests for the protocol layer: request/response codec (round-trips,
// quoting, malformed input -> structured errors), table dispatch and help,
// every verb in the table end-to-end against a scripted session, the
// asynchronous event queue, the protocol counters, and the golden
// transcript of the scripted quickstart scenario.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "comdes/build.hpp"
#include "comdes/validate.hpp"
#include "core/session.hpp"
#include "link/transport.hpp"
#include "proto/controller.hpp"
#include "proto/message.hpp"
#include "proto/scenarios.hpp"
#include "proto/script.hpp"

namespace gc = gmdf::comdes;
namespace gco = gmdf::core;
namespace gl = gmdf::link;
namespace gm = gmdf::meta;
namespace gp = gmdf::proto;
namespace rt = gmdf::rt;

namespace {

// ---- codec ------------------------------------------------------------------

TEST(Codec, ParsesVerbAndArgs) {
    auto r = gp::parse_request("break add state run");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.request->verb, "break");
    EXPECT_EQ(r.request->args,
              (std::vector<std::string>{"add", "state", "run"}));
}

TEST(Codec, QuotedArgumentsCarrySpaces) {
    auto r = gp::parse_request("break add signal \"speed > 40\" once");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.request->args,
              (std::vector<std::string>{"add", "signal", "speed > 40", "once"}));
}

TEST(Codec, EscapesInsideQuotes) {
    auto r = gp::parse_request(R"(say "he said \"hi\"" "a\\b" "line\nbreak" "tab\there")");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.request->args[0], "he said \"hi\"");
    EXPECT_EQ(r.request->args[1], "a\\b");
    EXPECT_EQ(r.request->args[2], "line\nbreak");
    EXPECT_EQ(r.request->args[3], "tab\there");
}

TEST(Codec, FormatParseRoundTrip) {
    gp::Request req{"echo", {"a b", "he said \"hi\"", "back\\slash", "nl\nhere", "", "plain"}};
    auto parsed = gp::parse_request(gp::format_request(req));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(*parsed.request, req);
}

TEST(Codec, MalformedInputIsStructuredError) {
    for (const char* line : {"", "   ", "query \"unterminated", "x \"bad \\q escape\"",
                             "x \"dangling\\", "x mid\"quote", "x \"post\"fix"}) {
        auto r = gp::parse_request(line);
        EXPECT_FALSE(r.ok()) << "'" << line << "' should not parse";
        EXPECT_FALSE(r.error.empty());
    }
}

TEST(Codec, ResponseFormatting) {
    EXPECT_EQ(gp::format_response(gp::Response::make_ok({"one", "two"})),
              "ok\n| one\n| two\n");
    EXPECT_EQ(gp::format_response(gp::Response::make_ok()), "ok\n");
    EXPECT_EQ(gp::format_response(
                  gp::Response::make_error(gp::ErrorCode::NotFound, "no state 'x'")),
              "error not-found: no state 'x'\n");
}

TEST(Codec, EventFormatting) {
    EXPECT_EQ(gp::format_event({gp::Event::Kind::Divergence, 1500, "bad transition"}),
              "* divergence @1500ns bad transition\n");
    EXPECT_EQ(gp::format_event(
                  {gp::Event::Kind::StateChange, std::nullopt, "waiting -> animating"}),
              "* state-change waiting -> animating\n");
}

// ---- verb table -------------------------------------------------------------

TEST(VerbTable, UnknownVerbAndHandlerExceptions) {
    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    auto& ctl = scenario->controller();
    const auto before = scenario->session->engine().stats();
    auto unknown = ctl.execute_line("nope");
    EXPECT_EQ(unknown.code, gp::ErrorCode::UnknownVerb);
    EXPECT_EQ(unknown.message, "unknown verb 'nope' (try 'help')");
    // A target crash inside `run` throws out of the handler; dispatch
    // turns it into an internal error naming the verb.
    scenario->target.inject_fault_at(50 * rt::kMs, "kaput");
    auto thrown = ctl.execute_line("run 100");
    EXPECT_EQ(thrown.code, gp::ErrorCode::Internal);
    EXPECT_EQ(thrown.message, "run failed: kaput");
    const auto after = scenario->session->engine().stats();
    EXPECT_EQ(after.requests, before.requests + 2);
    EXPECT_EQ(after.request_errors, before.request_errors + 2);
    EXPECT_TRUE(ctl.execute_line("run 100").ok()); // the fault was one-shot
}

TEST(VerbTable, HelpListsDocOnlyRows) {
    const auto& table = gp::SessionController::verb_table();
    std::set<std::string_view> dispatchable;
    for (const auto& row : table) {
        if (row.handler == nullptr) {
            EXPECT_EQ(row.latency, nullptr) << row.usage;
            continue;
        }
        EXPECT_TRUE(dispatchable.insert(row.verb).second) << row.verb;
        EXPECT_NE(row.latency, nullptr) << row.verb;
        EXPECT_EQ(gp::find_verb(table, row.verb), &row);
    }
    EXPECT_EQ(table.size(), 27u);
    EXPECT_EQ(dispatchable.size(), 17u);

    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    auto help = scenario->controller().execute_line("help");
    ASSERT_TRUE(help.ok());
    ASSERT_EQ(help.body.size(), 27u);
    EXPECT_EQ(help.body[8],
              "break add signal <predicate> [once] -- pause when the signal expression "
              "becomes true");
    auto one = scenario->controller().execute_line("help break");
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one.body.size(), 4u);
    EXPECT_EQ(scenario->controller().execute_line("help nothing").code,
              gp::ErrorCode::NotFound);
}

// ---- end-to-end against a scripted session ---------------------------------

// Two-state machine + speed signal, driven by a ScriptedTransport; the
// run hook advances a fake clock and pumps the transport.
struct ScriptedSession {
    gc::SystemBuilder sys{"demo"};
    gm::ObjectId speed, sm_id, s_idle, s_run, t_go;
    std::unique_ptr<gco::DebugSession> session;
    std::unique_ptr<gp::SessionController> controller;
    gl::ScriptedTransport* transport = nullptr;
    rt::SimTime now = 0;

    ScriptedSession() {
        speed = sys.add_signal("speed", "real_");
        auto a = sys.add_actor("ctl", 10'000);
        auto smb = a.add_sm("machine", {"go"}, {"out"});
        s_idle = smb.add_state("idle", {{"out", "0"}});
        s_run = smb.add_state("run", {{"out", "1"}});
        t_go = smb.add_transition(s_idle, s_run, "go");
        smb.add_transition(s_run, s_idle, "", "!go");
        sm_id = smb.sm_id();
        auto gt = a.add_basic("gt", "gt_", {0.5});
        a.bind_input(speed, gt, "in");
        a.connect(gt, "out", sm_id, "go");
        EXPECT_TRUE(gm::is_clean(gc::validate_comdes(sys.model())));
        session = std::make_unique<gco::DebugSession>(sys.model());
        auto t = std::make_unique<gl::ScriptedTransport>();
        transport = t.get();
        session->attach(std::move(t));
        controller = std::make_unique<gp::SessionController>(*session);
        controller->set_run_hook([this](rt::SimTime d) {
            now += d;
            transport->poll(session->engine(), now);
        });
    }

    gp::Response exec(const std::string& line) {
        return controller->execute_line(line);
    }

    void push(gl::Cmd kind, std::uint32_t a, std::uint32_t b, float v, rt::SimTime at) {
        transport->push({kind, a, b, v}, at);
    }
};

TEST(Controller, InfoReportsSessionShape) {
    ScriptedSession s;
    auto r = s.exec("info");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.body[0], "model demo");
    EXPECT_EQ(r.body[3], "engine waiting");
    EXPECT_EQ(r.body[4], "transports scripted");
    EXPECT_EQ(r.body[6], "step-filter any");
}

TEST(Controller, RunPumpsTransportAndReportsState) {
    ScriptedSession s;
    s.push(gl::Cmd::StateEnter, static_cast<std::uint32_t>(s.sm_id.raw),
           static_cast<std::uint32_t>(s.s_idle.raw), 0, 5 * rt::kMs);
    auto r = s.exec("run 10");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.body[0], "ran 10 ms");
    EXPECT_EQ(r.body[1], "engine animating");
    auto q = s.exec("query state machine");
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q.body[0], "machine machine in idle");
}

TEST(Controller, RunRejectsJunkAndMissingHook) {
    ScriptedSession s;
    EXPECT_EQ(s.exec("run nope").code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(s.exec("run -5").code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(s.exec("run").code, gp::ErrorCode::BadArgument);
    gco::DebugSession bare(s.sys.model());
    gp::SessionController bare_controller(bare);
    EXPECT_EQ(bare_controller.execute_line("run 10").code, gp::ErrorCode::BadState);
}

// run, checkpoint auto and rewind read <ms> the same way: junk, negative,
// non-finite and out-of-range values are bad arguments with each verb's
// own message. run refuses 0; checkpoint auto 0 turns the cadence off,
// and a positive cadence must be at least 1 ms.
TEST(Controller, MsArgumentsRefuseJunkWithEachVerbsMessage) {
    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    auto& ctl = scenario->controller();
    const std::vector<std::pair<std::string, std::string>> verbs = {
        {"run ", "' is not a positive duration"},
        {"checkpoint auto ", "' is not a cadence in ms (>= 0)"},
        {"rewind ", "' is not a time in ms (>= 0)"},
    };
    for (const auto& [verb, what] : verbs) {
        for (const std::string arg : {"nope", "-5", "nan", "inf", "1e300"}) {
            const gp::Response resp = ctl.execute_line(verb + arg);
            EXPECT_EQ(resp.code, gp::ErrorCode::BadArgument) << verb << arg;
            EXPECT_EQ(resp.message, "'" + arg + what) << verb << arg;
        }
    }
    const gp::Response zero = ctl.execute_line("run 0");
    EXPECT_EQ(zero.code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(zero.message, "'0' is not a positive duration");
    const gp::Response off = ctl.execute_line("checkpoint auto 0");
    ASSERT_TRUE(off.ok()) << off.message;
    EXPECT_EQ(off.body, std::vector<std::string>{"checkpoint auto off"});
    const gp::Response fine = ctl.execute_line("checkpoint auto 0.5");
    EXPECT_EQ(fine.code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(fine.message, "'0.5' is below the 1 ms cadence floor (0 turns the cadence off)");
    const gp::Response floor = ctl.execute_line("checkpoint auto 1");
    ASSERT_TRUE(floor.ok()) << floor.message;
    EXPECT_EQ(floor.body, std::vector<std::string>{"checkpoint auto every 1 ms"});
}

TEST(Controller, PauseStepResumeLifecycle) {
    ScriptedSession s;
    EXPECT_EQ(s.exec("resume").code, gp::ErrorCode::BadState);
    EXPECT_EQ(s.exec("step").code, gp::ErrorCode::BadState);
    auto p = s.exec("pause");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.body[0], "engine paused");
    EXPECT_EQ(s.exec("pause").code, gp::ErrorCode::BadState);
    EXPECT_EQ(s.transport->pauses(), 1u);
    auto st = s.exec("step ctl");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.body[0], "stepping ctl");
    ASSERT_EQ(s.transport->steps().size(), 1u);
    EXPECT_EQ(s.transport->steps()[0].actor, "ctl");
    // The engine re-pauses at the next ingested command.
    s.push(gl::Cmd::TaskStart, 1, 0, 0, s.now + rt::kMs);
    ASSERT_TRUE(s.exec("run 2").ok());
    EXPECT_EQ(s.session->engine().state(), gco::EngineState::Paused);
    auto res = s.exec("resume");
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.body[0], "engine animating");
    EXPECT_EQ(s.transport->resumes(), 1u);
}

TEST(Controller, StepFilterSetAndClear) {
    ScriptedSession s;
    auto r = s.exec("step-filter ctl");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.body[0], "step-filter ctl");
    EXPECT_EQ(s.session->engine().step_filter().actor, "ctl");
    r = s.exec("step-filter");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.body[0], "step-filter any");
    EXPECT_TRUE(s.session->engine().step_filter().any());
}

TEST(Controller, BreakAddListRemove) {
    ScriptedSession s;
    auto add = s.exec("break add state run once");
    ASSERT_TRUE(add.ok());
    EXPECT_EQ(add.body[0], "breakpoint 1 state-enter run once");
    auto by_id = s.exec("break add transition #" + std::to_string(s.t_go.raw));
    ASSERT_TRUE(by_id.ok());
    auto sig = s.exec("break add signal \"speed > 40\"");
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(sig.body[0], "breakpoint 3 signal-predicate \"speed > 40\"");
    auto list = s.exec("break list");
    ASSERT_TRUE(list.ok());
    EXPECT_EQ(list.body.size(), 3u);
    ASSERT_TRUE(s.exec("break remove 2").ok());
    EXPECT_EQ(s.exec("break remove 2").code, gp::ErrorCode::NotFound);
    EXPECT_EQ(s.exec("break list").body.size(), 2u);
}

TEST(Controller, BreakRejectsBadInput) {
    ScriptedSession s;
    EXPECT_EQ(s.exec("break add state no_such_state").code, gp::ErrorCode::NotFound);
    EXPECT_EQ(s.exec("break add signal \"speed >\"").code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(s.exec("break add weird thing").code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(s.exec("break").code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(s.exec("break remove nan").code, gp::ErrorCode::BadArgument);
    // Integer arguments must be integers: no silent truncation.
    EXPECT_EQ(s.exec("break remove 1.9").code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(s.exec("break add state #1.5").code, gp::ErrorCode::NotFound);
    EXPECT_EQ(s.exec("replay 1.5").code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(s.exec("trace timing 32.5").code, gp::ErrorCode::BadArgument);
    // ...and out-of-range values must not alias existing handles.
    ASSERT_TRUE(s.exec("break add state run").ok()); // handle 1 exists
    EXPECT_EQ(s.exec("break remove 4294967297").code, gp::ErrorCode::NotFound);
    EXPECT_EQ(s.exec("break remove 18446744073709551617").code,
              gp::ErrorCode::BadArgument);
    EXPECT_EQ(s.exec("break list").body.size(), 1u); // breakpoint 1 untouched
    EXPECT_EQ(s.exec("run 1e300").code, gp::ErrorCode::BadArgument);
    // A state id that exists but is not a state.
    EXPECT_EQ(s.exec("break add state #" + std::to_string(s.speed.raw)).code,
              gp::ErrorCode::NotFound);
}

TEST(Controller, BreakpointFiresAndQueuesEvent) {
    ScriptedSession s;
    ASSERT_TRUE(s.exec("break add state run").ok());
    s.push(gl::Cmd::StateEnter, static_cast<std::uint32_t>(s.sm_id.raw),
           static_cast<std::uint32_t>(s.s_run.raw), 0, rt::kMs);
    ASSERT_TRUE(s.exec("run 2").ok());
    EXPECT_EQ(s.session->engine().state(), gco::EngineState::Paused);
    auto events = s.controller->drain_events();
    ASSERT_GE(events.size(), 2u); // state changes + breakpoint hit
    bool hit = false;
    for (const auto& ev : events)
        if (ev.kind == gp::Event::Kind::BreakpointHit) {
            hit = true;
            EXPECT_NE(ev.detail.find("handle=1"), std::string::npos);
            EXPECT_NE(ev.detail.find("state-enter run"), std::string::npos);
            ASSERT_TRUE(ev.t.has_value());
            EXPECT_EQ(*ev.t, rt::kMs);
        }
    EXPECT_TRUE(hit);
    EXPECT_FALSE(s.controller->has_events());
}

TEST(Controller, DivergenceQueuesEventAndQueryReportsIt) {
    ScriptedSession s;
    // TRANSITION naming a non-transition element diverges from the model.
    s.push(gl::Cmd::Transition, static_cast<std::uint32_t>(s.sm_id.raw),
           static_cast<std::uint32_t>(s.speed.raw), 0, rt::kMs);
    ASSERT_TRUE(s.exec("run 2").ok());
    auto q = s.exec("query divergences");
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q.body[0], "divergences 1");
    EXPECT_EQ(q.body.size(), 2u);
    bool diverged = false;
    for (const auto& ev : s.controller->drain_events())
        if (ev.kind == gp::Event::Kind::Divergence) diverged = true;
    EXPECT_TRUE(diverged);
}

TEST(Controller, QuerySignalAndState) {
    ScriptedSession s;
    auto unobserved = s.exec("query signal speed");
    ASSERT_TRUE(unobserved.ok());
    EXPECT_EQ(unobserved.body[0], "signal speed unobserved");
    s.push(gl::Cmd::SignalUpdate, static_cast<std::uint32_t>(s.speed.raw), 0, 42.5f,
           rt::kMs);
    ASSERT_TRUE(s.exec("run 2").ok());
    EXPECT_EQ(s.exec("query signal speed").body[0], "signal speed = 42.5");
    EXPECT_EQ(s.exec("query signal bogus").code, gp::ErrorCode::NotFound);
    EXPECT_EQ(s.exec("query state bogus").code, gp::ErrorCode::NotFound);
    EXPECT_EQ(s.exec("query state machine").body[0], "machine machine unobserved");
    EXPECT_EQ(s.exec("query nothing").code, gp::ErrorCode::BadArgument);
}

TEST(Controller, StatsCountRequestsErrorsAndEvents) {
    ScriptedSession s;
    (void)s.exec("info");
    (void)s.exec("bogus-verb");
    (void)s.exec("\"unparsable");
    (void)s.exec("pause"); // queues a state-change event
    auto r = s.exec("query stats");
    ASSERT_TRUE(r.ok());
    // 5 requests so far including this one; 2 errors; >= 1 event.
    EXPECT_EQ(r.body[4], "requests 5");
    EXPECT_EQ(r.body[5], "request-errors 2");
    EXPECT_EQ(r.body[6], "events-emitted 1");
    EXPECT_EQ(r.body[7], "events-dropped 0");
    EXPECT_EQ(r.body[8], "transport scripted commands=0 corrupt=0 polls=0");
}

TEST(Controller, RenderTraceReplayHelpQuit) {
    ScriptedSession s;
    s.push(gl::Cmd::StateEnter, static_cast<std::uint32_t>(s.sm_id.raw),
           static_cast<std::uint32_t>(s.s_idle.raw), 0, rt::kMs);
    s.push(gl::Cmd::SignalUpdate, static_cast<std::uint32_t>(s.speed.raw), 0, 1.0f,
           2 * rt::kMs);
    ASSERT_TRUE(s.exec("run 5").ok());

    auto ascii = s.exec("render ascii");
    ASSERT_TRUE(ascii.ok());
    EXPECT_FALSE(ascii.body.empty());
    auto svg = s.exec("render svg");
    ASSERT_TRUE(svg.ok());
    EXPECT_NE(svg.body[0].find("<svg"), std::string::npos);
    EXPECT_EQ(s.exec("render jpeg").code, gp::ErrorCode::BadArgument);

    auto vcd = s.exec("trace vcd");
    ASSERT_TRUE(vcd.ok());
    EXPECT_EQ(vcd.body[0], "$date gmdf trace $end");
    EXPECT_EQ(vcd.body[2], "$timescale 1ns $end");
    auto timing = s.exec("trace timing 32");
    ASSERT_TRUE(timing.ok());
    EXPECT_FALSE(timing.body.empty());
    EXPECT_EQ(s.exec("trace timing 2").code, gp::ErrorCode::BadArgument);

    auto replay = s.exec("replay");
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.body[0], "replay 2 frames (stride 1)");
    EXPECT_EQ(s.exec("replay 0").code, gp::ErrorCode::BadArgument);

    auto help = s.exec("help");
    ASSERT_TRUE(help.ok());
    auto one = s.exec("help break");
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one.body.size(), 4u);
    EXPECT_EQ(s.exec("help nothing").code, gp::ErrorCode::NotFound);

    auto quit = s.exec("quit");
    ASSERT_TRUE(quit.ok());
    EXPECT_EQ(quit.body[0], "bye");
}

// Every verb in the session verb table is exercised with a passing
// request — new verbs must come with coverage or this fails. The
// time-travel verbs need a deterministic target with a timeline, so
// they run against a built-in scenario; everything else runs on the
// scripted session.
TEST(Controller, EveryRegisteredVerbHasAPassingRequest) {
    ScriptedSession s;
    const std::vector<std::string> program = {
        "help",        "info",          "run 1",     "pause",
        "step",        "step-filter",   "resume",    "break add state run",
        "break list",  "query stats",   "render ascii", "trace timing",
        "replay",      "quit",
    };
    std::set<std::string> exercised;
    for (const std::string& line : program) {
        auto resp = s.exec(line);
        EXPECT_TRUE(resp.ok()) << line << " -> " << gp::format_response(resp);
        auto parsed = gp::parse_request(line);
        ASSERT_TRUE(parsed.ok());
        exercised.insert(parsed.request->verb);
    }

    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    const std::vector<std::string> replay_program = {
        "checkpoint auto 100", "checkpoint now", "run 300", "checkpoint list",
        "rewind 150",          "run 150",        "step-back 1", "bisect",
    };
    for (const std::string& line : replay_program) {
        auto resp = scenario->controller().execute_line(line);
        EXPECT_TRUE(resp.ok()) << line << " -> " << gp::format_response(resp);
        auto parsed = gp::parse_request(line);
        ASSERT_TRUE(parsed.ok());
        exercised.insert(parsed.request->verb);
    }

    for (const auto& row : gp::SessionController::verb_table())
        EXPECT_TRUE(exercised.contains(std::string(row.verb)))
            << "verb '" << row.verb << "' untested";
}

// ---- scenarios + golden transcript -----------------------------------------

TEST(Scenarios, KnownNamesBuildUnknownRejected) {
    EXPECT_EQ(gp::make_scenario("no_such"), nullptr);
    for (const std::string& name : gp::scenario_names()) {
        auto scenario = gp::make_scenario(name);
        ASSERT_NE(scenario, nullptr) << name;
        EXPECT_TRUE(scenario->controller().execute_line("info").ok());
    }
}

TEST(Scenarios, TurntableBreakpointScenarioOverProtocol) {
    auto s = gp::make_scenario("turntable");
    ASSERT_NE(s, nullptr);
    ASSERT_TRUE(s->controller().execute_line("break add state drilling").ok());
    ASSERT_TRUE(s->controller().execute_line("run 400").ok());
    auto q = s->controller().execute_line("query state sequencer");
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q.body[0], "machine sequencer in drilling");
    bool hit = false;
    for (const auto& ev : s->controller().drain_events())
        if (ev.kind == gp::Event::Kind::BreakpointHit) hit = true;
    EXPECT_TRUE(hit);
}

TEST(Golden, QuickstartScriptTranscriptIsByteStable) {
    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    std::ifstream script(std::string(GMDF_SOURCE_DIR) + "/examples/quickstart.gds");
    ASSERT_TRUE(script) << "missing examples/quickstart.gds";
    std::ostringstream out;
    auto result = gp::run_script(scenario->controller(), script, out);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_TRUE(result.quit);

    std::ifstream golden_file(std::string(GMDF_SOURCE_DIR) +
                              "/tests/golden/quickstart_transcript.txt");
    ASSERT_TRUE(golden_file) << "missing tests/golden/quickstart_transcript.txt";
    std::ostringstream golden;
    golden << golden_file.rdbuf();
    EXPECT_EQ(out.str(), golden.str());
}

} // namespace
