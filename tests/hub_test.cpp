// Tests for the multi-session debug hub: registry lifecycle (open /
// close / reopen, stable ids), @<session> request routing including the
// closed-session error path, scheduler fairness under a flooding
// transport, event tagging, hub aggregate stats, the bounded controller
// and hub event queues, and the golden fleet transcript.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "hub/controller.hpp"
#include "hub/registry.hpp"
#include "proto/script.hpp"
#include "scripted_scenario.hpp"

namespace gh = gmdf::hub;
namespace gp = gmdf::proto;
namespace rt = gmdf::rt;

namespace {

using gmdf::test::Scripted;
using gmdf::test::scripted_scenario;

// ---- registry lifecycle -----------------------------------------------------

TEST(Registry, OpenCloseReopenUnderTheSameName) {
    gh::HubController hub;
    auto* first = hub.open("blinker", "t1");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->id, 1);

    // A live name cannot be opened twice.
    auto dup = hub.execute_line("session open blinker t1");
    EXPECT_EQ(dup.code, gp::ErrorCode::BadState);

    ASSERT_TRUE(hub.execute_line("session close t1").ok());
    EXPECT_EQ(hub.registry().size(), 0u);

    // Reopening the name works and yields a fresh, never-reused id.
    auto reopened = hub.execute_line("session open blinker t1");
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.body[0], "session 2 t1 opened (scenario blinker)");
    EXPECT_EQ(hub.registry().opened(), 2u);
    EXPECT_EQ(hub.registry().closed(), 1u);
}

TEST(Registry, RejectsBadNamesAndUnknownScenarios) {
    gh::HubController hub;
    EXPECT_EQ(hub.execute_line("session open no_such_scenario").code,
              gp::ErrorCode::NotFound);
    EXPECT_EQ(hub.execute_line("session open blinker \"two words\"").code,
              gp::ErrorCode::BadArgument);
    EXPECT_EQ(hub.execute_line("session open").code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(hub.registry().size(), 0u);
    EXPECT_FALSE(gh::SessionRegistry::valid_name(""));
    EXPECT_FALSE(gh::SessionRegistry::valid_name("a b"));
    EXPECT_FALSE(gh::SessionRegistry::valid_name("a@b"));
    EXPECT_TRUE(gh::SessionRegistry::valid_name("Cell_7-a"));
    // All-digit names would shadow session ids in @<tag> resolution.
    EXPECT_FALSE(gh::SessionRegistry::valid_name("1"));
    EXPECT_FALSE(gh::SessionRegistry::valid_name("42"));
    EXPECT_TRUE(gh::SessionRegistry::valid_name("42a"));
}

TEST(Registry, AllDigitNamesCannotShadowIds) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr); // id 1
    auto resp = hub.execute_line("session open turntable 1");
    EXPECT_EQ(resp.code, gp::ErrorCode::BadArgument)
        << "a session named '1' could never be addressed";
    EXPECT_EQ(hub.registry().size(), 1u);
}

// ---- @<session> routing -----------------------------------------------------

TEST(Routing, AddressedRequestsReachTheirSessionWithoutSwitching) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    ASSERT_NE(hub.open("turntable", "b"), nullptr);
    ASSERT_EQ(hub.current()->name, "b");

    auto by_name = hub.execute_line("@a info");
    ASSERT_TRUE(by_name.ok());
    EXPECT_EQ(by_name.body[0], "model blinker_system");
    auto by_id = hub.execute_line("@1 info");
    ASSERT_TRUE(by_id.ok());
    EXPECT_EQ(by_id.body[0], "model blinker_system");
    EXPECT_EQ(hub.current()->name, "b") << "@ routing must not switch current";
}

TEST(Routing, ClosedSessionIsAStructuredErrorNotACrash) {
    gh::HubController hub;
    auto* entry = hub.open("blinker", "gone");
    ASSERT_NE(entry, nullptr);
    int id = entry->id;
    ASSERT_TRUE(hub.execute_line("session close gone").ok());

    auto by_id = hub.execute_line("@" + std::to_string(id) + " query stats");
    EXPECT_EQ(by_id.code, gp::ErrorCode::NotFound);
    EXPECT_NE(by_id.message.find("no session"), std::string::npos);
    auto by_name = hub.execute_line("@gone info");
    EXPECT_EQ(by_name.code, gp::ErrorCode::NotFound);
    EXPECT_EQ(hub.stats().request_errors, 2u);
}

TEST(Routing, AddressedSessionVerbsAreRejectedNotMisrouted) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    ASSERT_NE(hub.open("blinker", "b"), nullptr);
    // '@a session close' must not silently close the current session.
    auto resp = hub.execute_line("@a session close");
    EXPECT_EQ(resp.code, gp::ErrorCode::BadArgument);
    EXPECT_EQ(hub.registry().size(), 2u);
}

TEST(Routing, MalformedPrefixAndNoSessionErrors) {
    gh::HubController hub;
    EXPECT_EQ(hub.execute_line("@").code, gp::ErrorCode::BadRequest);
    EXPECT_EQ(hub.execute_line("@1").code, gp::ErrorCode::BadRequest);
    EXPECT_EQ(hub.execute_line("info").code, gp::ErrorCode::BadState);
    auto quit = hub.execute_line("quit");
    ASSERT_TRUE(quit.ok()) << "quit must succeed even with no open session";
    EXPECT_EQ(quit.body[0], "bye");
}

// `exit` is `quit` under another name, with or without an open session.
TEST(Routing, ExitAnswersLikeQuit) {
    gh::HubController hub;
    EXPECT_EQ(gp::format_response(hub.execute_line("exit")),
              gp::format_response(hub.execute_line("quit")));
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    auto quit = hub.execute_line("quit");
    ASSERT_TRUE(quit.ok()) << quit.message;
    EXPECT_EQ(gp::format_response(hub.execute_line("exit")), gp::format_response(quit));
}

// With or without a current session, the goodbye goes only to a bare
// quit or exit (blanks allowed), the line proto::is_quit_line ends the
// exchange on; anything after the verb is refused with the usage.
TEST(Routing, OnlyABareQuitGetsTheGoodbye) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    gh::RouteContext none; // no current session
    const std::string bye = "ok\n| bye\n";
    const std::string usage = "error bad-argument: usage: quit\n";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"quit", bye},       {"exit", bye},       {" \tquit \t", bye},
        {"quit foo", usage}, {"exit foo", usage}, {"quit \"\"", usage},
    };
    for (const auto& [line, answer] : cases) {
        SCOPED_TRACE(line);
        EXPECT_EQ(gp::format_response(hub.execute_line(line, none)), answer);
        EXPECT_EQ(gp::format_response(hub.execute_line(line)), answer);
    }
}

// Each form that names a session refuses an unknown one and an
// acl-refused one with its own pinned code and message, and counts the
// refusal once as a hub request and once as a hub error.
TEST(Routing, SessionArgumentRefusalsArePinnedPerForm) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    ASSERT_NE(hub.open("blinker", "b"), nullptr);
    gh::RouteContext only_a; // may address a, not b
    only_a.restricted = true;
    only_a.acl = {"a"};
    gh::RouteContext none; // no current session

    const std::string acl = "session 'b' is outside this client's acl";
    struct Case {
        std::string line;
        gh::RouteContext* ctx;
        gp::ErrorCode code;
        std::string message;
    };
    const std::vector<Case> cases = {
        {"@x info", &hub.root_context(), gp::ErrorCode::NotFound,
         "no session '@x' (see 'session list')"},
        {"session close x", &hub.root_context(), gp::ErrorCode::NotFound, "no session 'x'"},
        {"session use x", &hub.root_context(), gp::ErrorCode::NotFound, "no session 'x'"},
        {"session revive x", &hub.root_context(), gp::ErrorCode::NotFound,
         "no session 'x'"},
        {"attach x", &hub.root_context(), gp::ErrorCode::NotFound, "no session 'x'"},
        {"@b info", &only_a, gp::ErrorCode::BadState, acl},
        {"session close b", &only_a, gp::ErrorCode::BadState, acl},
        {"session use b", &only_a, gp::ErrorCode::BadState, acl},
        {"session revive b", &only_a, gp::ErrorCode::BadState, acl},
        {"attach b", &only_a, gp::ErrorCode::BadState, acl},
        {"session close", &none, gp::ErrorCode::BadState, "no open session"},
        {"session revive", &none, gp::ErrorCode::BadState, "no open session"},
    };
    for (const Case& c : cases) {
        const gh::HubController::HubStats before = hub.stats();
        const gp::Response resp = hub.execute_line(c.line, *c.ctx);
        EXPECT_EQ(resp.code, c.code) << c.line;
        EXPECT_EQ(resp.message, c.message) << c.line;
        EXPECT_EQ(hub.stats().requests, before.requests + 1) << c.line;
        EXPECT_EQ(hub.stats().request_errors, before.request_errors + 1) << c.line;
    }
    EXPECT_EQ(hub.registry().size(), 2u);
}

TEST(Routing, CloseCurrentFallsBackToLowestId) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    ASSERT_NE(hub.open("blinker", "b"), nullptr);
    ASSERT_NE(hub.open("blinker", "c"), nullptr);
    auto close = hub.execute_line("session close");
    ASSERT_TRUE(close.ok());
    EXPECT_EQ(close.body[0], "session 3 c closed");
    EXPECT_EQ(close.body[1], "current a");
    ASSERT_TRUE(hub.execute_line("session use b").ok());
    EXPECT_EQ(hub.current()->name, "b");
}

// ---- scheduler --------------------------------------------------------------

TEST(Scheduler, FloodingTransportCannotStarveQuietSessions) {
    gh::HubController hub;
    hub.scheduler().set_budget(5 * rt::kMs);
    // 5000 commands inside the first 5 ms vs 5 commands over 50 ms.
    Scripted flood = scripted_scenario("flood", 5000, rt::kUs);
    Scripted quiet = scripted_scenario("quiet", 5, 10 * rt::kMs);
    auto* flood_entry = hub.adopt(std::move(flood.scenario), "flood");
    auto* quiet_entry = hub.adopt(std::move(quiet.scenario), "quiet");
    ASSERT_NE(flood_entry, nullptr);
    ASSERT_NE(quiet_entry, nullptr);

    ASSERT_TRUE(hub.execute_line("run 100").ok());

    // Both sessions consumed their whole stream and the full duration.
    EXPECT_EQ(flood.session->engine().stats().commands, 5000u);
    EXPECT_EQ(quiet.session->engine().stats().commands, 5u);
    EXPECT_EQ(flood_entry->scenario->target.sim().now(), 100 * rt::kMs);
    EXPECT_EQ(quiet_entry->scenario->target.sim().now(), 100 * rt::kMs);
    EXPECT_EQ(hub.scheduler().total_slices(), 40u); // 2 x 100 ms / 5 ms budget
}

// ---- events -----------------------------------------------------------------

TEST(Events, TaggingLatchesOnceTheHubGoesMultiSession) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "solo"), nullptr);
    ASSERT_TRUE(hub.execute_line("pause").ok());
    auto single = hub.drain_event_lines();
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0], "* state-change waiting -> paused\n");

    ASSERT_NE(hub.open("blinker", "other"), nullptr);
    ASSERT_TRUE(hub.execute_line("@solo resume").ok());
    auto tagged = hub.drain_event_lines();
    ASSERT_EQ(tagged.size(), 1u);
    EXPECT_EQ(tagged[0], "[solo] * state-change paused -> animating\n");

    // Tagging stays on after shrinking back to one session, so a
    // transcript never changes shape mid-stream.
    ASSERT_TRUE(hub.execute_line("session close other").ok());
    ASSERT_TRUE(hub.execute_line("@solo pause").ok());
    auto still_tagged = hub.drain_event_lines();
    ASSERT_EQ(still_tagged.size(), 1u);
    EXPECT_EQ(still_tagged[0], "[solo] * state-change animating -> paused\n");
}

TEST(Events, QueueDropsAreCountedInEngineStats) {
    gh::HubController hub;
    auto* entry = hub.open("blinker", "busy");
    ASSERT_NE(entry, nullptr);
    // Overflow the 4096-deep controller queue without draining.
    for (int i = 0; i < 4100; ++i)
        entry->controller().on_divergence({i, {}, "synthetic divergence"});
    EXPECT_EQ(entry->controller().dropped_events(), 4u);
    auto stats = hub.execute_line("query stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.body[6], "events-emitted 4100");
    EXPECT_EQ(stats.body[7], "events-dropped 4");
    // Routing `query stats` swept the controller queue into the hub;
    // the 4096 surviving events are all there.
    EXPECT_EQ(hub.drain_event_lines().size(), 4096u);
    EXPECT_FALSE(entry->controller().has_events());
}

TEST(Events, HubQueueIsBoundedWhenNobodyDrains) {
    gh::HubController hub;
    auto* entry = hub.open("blinker", "busy");
    ASSERT_NE(entry, nullptr);
    // Each request sweeps the controller's queue (4096 deep) into the
    // hub's, so batches of 4000 overflow the hub's bound without a drop
    // upstream.
    constexpr int kBatch = 4000;
    constexpr int kEvents = 17 * kBatch;
    static_assert(kEvents > gh::HubController::kEventCapacity);
    for (int i = 0; i < kEvents; ++i) {
        entry->controller().on_divergence({i, {}, "synthetic divergence"});
        if ((i + 1) % kBatch == 0) {
            ASSERT_TRUE(hub.execute_line("info").ok());
        }
    }
    constexpr auto kDropped = kEvents - gh::HubController::kEventCapacity;
    EXPECT_EQ(entry->controller().dropped_events(), 0u);
    EXPECT_EQ(hub.stats().events_dropped, kDropped);
    auto lines = hub.drain_event_lines();
    ASSERT_EQ(lines.size(), gh::HubController::kEventCapacity);
    EXPECT_NE(lines.front().find("@" + std::to_string(kDropped) + "ns"), std::string::npos)
        << "oldest evicted first: " << lines.front();
}

// ---- hub stats --------------------------------------------------------------

TEST(HubStats, AggregatesAcrossLiveSessions) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    ASSERT_NE(hub.open("blinker", "b"), nullptr);
    ASSERT_TRUE(hub.execute_line("@a info").ok());
    ASSERT_TRUE(hub.execute_line("@a info").ok());
    ASSERT_TRUE(hub.execute_line("@b info").ok());
    auto stats = hub.execute_line("session stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.body[0], "sessions 2 live (opened 2, closed 0)");
    EXPECT_EQ(stats.body[9], "requests 3"); // aggregate of both sessions
    EXPECT_EQ(hub.stats().requests, 1u);    // only `session stats` itself
}

TEST(HubStats, TotalsStayMonotonicAcrossCloses) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    ASSERT_NE(hub.open("blinker", "b"), nullptr);
    ASSERT_TRUE(hub.execute_line("@a info").ok());
    ASSERT_TRUE(hub.execute_line("@b run 20").ok());
    auto before = hub.registry().aggregate_stats();
    EXPECT_EQ(before.requests, 2u);
    const auto slices = hub.scheduler().total_slices();
    EXPECT_EQ(slices, 4u); // 2 sessions x 20 ms / 10 ms budget
    ASSERT_TRUE(hub.execute_line("session close a").ok());
    auto after = hub.registry().aggregate_stats();
    EXPECT_EQ(after.requests, before.requests)
        << "closing a session must not roll hub totals backwards";
    EXPECT_EQ(after.commands, before.commands);
    EXPECT_EQ(after.events_emitted, before.events_emitted);
    EXPECT_EQ(hub.scheduler().total_slices(), slices);
}

TEST(HubStats, HelpMergesSessionAndHubRegistries) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    auto help = hub.execute_line("help");
    ASSERT_TRUE(help.ok());
    bool has_session_row = false, has_run_row = false;
    for (const auto& line : help.body) {
        if (line.find("session open <scenario>") != std::string::npos)
            has_session_row = true;
        if (line.find("run <ms>") != std::string::npos) has_run_row = true;
    }
    EXPECT_TRUE(has_session_row);
    EXPECT_TRUE(has_run_row);
    auto topic = hub.execute_line("help session");
    ASSERT_TRUE(topic.ok());
    EXPECT_EQ(topic.body.size(), 6u); // open/close/list/use/revive/stats
}

TEST(HubStats, ReadmeVerbTablesEqualHelp) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    auto help = hub.execute_line("help");
    ASSERT_TRUE(help.ok());
    std::ifstream readme(std::string(GMDF_SOURCE_DIR) + "/README.md");
    ASSERT_TRUE(readme) << "missing README.md";
    std::set<std::string> lines;
    for (std::string line; std::getline(readme, line);) lines.insert(line);
    // A `|` inside a markdown table cell is written `\|`.
    auto cell = [](const std::string& text) {
        std::string out;
        for (char c : text) {
            if (c == '|') out += '\\';
            out += c;
        }
        return out;
    };
    for (const auto& line : help.body) {
        const auto sep = line.find(" -- ");
        ASSERT_NE(sep, std::string::npos) << line;
        const std::string row = "| `" + cell(line.substr(0, sep)) + "` | " +
                                cell(line.substr(sep + 4)) + " |";
        EXPECT_TRUE(lines.contains(row)) << "README.md has no row\n" << row;
    }
}

// ---- campaign verb ----------------------------------------------------------

TEST(CampaignVerb, SeedTakesEveryU32) {
    gh::HubController hub;
    auto top = hub.execute_line("campaign run 1 4294967295");
    EXPECT_TRUE(top.ok()) << top.message;
    auto past = hub.execute_line("campaign run 1 4294967296");
    EXPECT_EQ(past.code, gp::ErrorCode::BadArgument);
}

// ---- scripts ----------------------------------------------------------------

// A quit addressed to a session ends the script the way a bare one does:
// the session says goodbye and nothing after it runs.
TEST(HubScript, AddressedQuitStopsTheScript) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "blinker"), nullptr);
    std::istringstream script("@blinker quit\ninfo\n");
    std::ostringstream out;
    auto result = gp::run_script(hub, script, out);
    EXPECT_TRUE(result.quit);
    EXPECT_EQ(result.requests, 1u);
    EXPECT_EQ(out.str(), "> @blinker quit\nok\n| bye\n");
}

// ---- golden fleet transcript ------------------------------------------------

TEST(Golden, FleetScriptTranscriptIsByteStable) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "blinker"), nullptr);
    std::ifstream script(std::string(GMDF_SOURCE_DIR) + "/examples/fleet.gds");
    ASSERT_TRUE(script) << "missing examples/fleet.gds";
    std::ostringstream out;
    auto result = gp::run_script(hub, script, out);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_TRUE(result.quit);

    std::ifstream golden_file(std::string(GMDF_SOURCE_DIR) +
                              "/tests/golden/fleet_transcript.txt");
    ASSERT_TRUE(golden_file) << "missing tests/golden/fleet_transcript.txt";
    std::ostringstream golden;
    golden << golden_file.rdbuf();
    EXPECT_EQ(out.str(), golden.str());
}

} // namespace
