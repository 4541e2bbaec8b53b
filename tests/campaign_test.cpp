// gmdf::campaign: the seeded model generator (determinism, validity),
// the campaign runner's per-fault-kind classification contract, the
// parameterized scenario names, the .gds extension language, and the
// golden campaign transcript.
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "campaign/generator.hpp"
#include "campaign/runner.hpp"
#include "codegen/faults.hpp"
#include "comdes/validate.hpp"
#include "hub/controller.hpp"
#include "meta/diagnostics.hpp"
#include "meta/serialize.hpp"
#include "proto/scenarios.hpp"
#include "proto/script.hpp"
#include "replay/compare.hpp"

namespace {

namespace gc = gmdf::campaign;
namespace gp = gmdf::proto;

// ---- fault kind naming (codegen satellites) --------------------------------

TEST(FaultKinds, ToStringIsCompleteAndUnique) {
    std::set<std::string> names;
    for (auto kind : gmdf::codegen::all_fault_kinds()) {
        std::string name = gmdf::codegen::to_string(kind);
        EXPECT_NE(name, "?");
        EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    }
    EXPECT_EQ(names.size(), gmdf::codegen::all_fault_kinds().size());
}

TEST(FaultKinds, FromStringRoundTripsAndRejectsUnknown) {
    for (auto kind : gmdf::codegen::all_fault_kinds()) {
        auto back = gmdf::codegen::fault_kind_from_string(gmdf::codegen::to_string(kind));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, kind);
    }
    EXPECT_FALSE(gmdf::codegen::fault_kind_from_string("no-such-fault").has_value());
    EXPECT_FALSE(gmdf::codegen::fault_kind_from_string("").has_value());
}

// ---- generator --------------------------------------------------------------

TEST(Generator, SameSeedYieldsByteIdenticalModelAndStimuli) {
    gc::GenSpec spec;
    gmdf::comdes::SystemBuilder a("gen_system"), b("gen_system");
    auto ga = gc::generate_system(a, spec, 7);
    auto gb = gc::generate_system(b, spec, 7);
    EXPECT_EQ(gmdf::meta::write_model(a.model()), gmdf::meta::write_model(b.model()));
    ASSERT_EQ(ga.stimuli.size(), gb.stimuli.size());
    for (std::size_t i = 0; i < ga.stimuli.size(); ++i) {
        EXPECT_EQ(ga.stimuli[i].signal.raw, gb.stimuli[i].signal.raw);
        EXPECT_EQ(ga.stimuli[i].value, gb.stimuli[i].value);
        EXPECT_EQ(ga.stimuli[i].at, gb.stimuli[i].at);
        EXPECT_EQ(ga.stimuli[i].node, gb.stimuli[i].node);
    }
}

TEST(Generator, DifferentSeedsDiffer) {
    gmdf::comdes::SystemBuilder a("gen_system"), b("gen_system");
    gc::generate_system(a, {}, 1);
    gc::generate_system(b, {}, 2);
    EXPECT_NE(gmdf::meta::write_model(a.model()), gmdf::meta::write_model(b.model()));
}

TEST(Generator, ValiditySweepEverySeedIsCleanAndRunnable) {
    gc::GenSpec spec;
    for (std::uint32_t seed = 1; seed <= 25; ++seed) {
        gmdf::comdes::SystemBuilder sys("gen_system");
        auto gen = gc::generate_system(sys, spec, seed);
        auto diags = gmdf::comdes::validate_comdes(sys.model());
        EXPECT_TRUE(gmdf::meta::is_clean(diags)) << "seed " << seed;
        EXPECT_EQ(gen.stimuli.size(), static_cast<std::size_t>(spec.stimuli));
    }
    // And the clean scenario path loads, runs, and stays divergence-free.
    gc::MakeResult clean = gc::make_generated_scenario(spec, 11, std::nullopt);
    ASSERT_NE(clean.scenario, nullptr);
    ASSERT_TRUE(clean.scenario->controller().execute_line("run 300").ok());
    EXPECT_TRUE(clean.scenario->session->divergences().empty());
}

// ---- parameterized scenario names ------------------------------------------

TEST(Scenarios, ParameterizedNamesParse) {
    EXPECT_NE(gp::make_scenario("gen:5"), nullptr);
    EXPECT_NE(gp::make_scenario("gen:5:wrong-initial-state"), nullptr);
    EXPECT_NE(gp::make_scenario("lift_fault:negate-guard"), nullptr);
    EXPECT_NE(gp::make_scenario("gen:4294967295"), nullptr);
    EXPECT_EQ(gp::make_scenario("gen:4294967296"), nullptr);
    EXPECT_EQ(gp::make_scenario("gen:abc"), nullptr);
    EXPECT_EQ(gp::make_scenario("gen:"), nullptr);
    EXPECT_EQ(gp::make_scenario("gen:5:bogus"), nullptr);
    EXPECT_EQ(gp::make_scenario("lift_fault:bogus"), nullptr);
    // The elevator has no basic FBs: the fault has no surface.
    EXPECT_EQ(gp::make_scenario("lift_fault:flip-param-sign"), nullptr);
}

TEST(Scenarios, FaultedTwinKeepsDesignModelClean) {
    auto s = gp::make_scenario("gen:9:wrong-initial-state");
    ASSERT_NE(s, nullptr);
    ASSERT_NE(s->mutated, nullptr);
    // The debugger-side design model must be untouched by the injection.
    gmdf::comdes::SystemBuilder twin("gen:9:wrong-initial-state_system");
    gc::generate_system(twin, {}, 9);
    EXPECT_EQ(gmdf::meta::write_model(s->sys.model()),
              gmdf::meta::write_model(twin.model()));
    EXPECT_NE(gmdf::meta::write_model(*s->mutated),
              gmdf::meta::write_model(s->sys.model()));
}

// ---- campaign runner --------------------------------------------------------

// One generation and one validation per pair: the twin builder's
// scenarios match the ones make_generated_scenario builds separately,
// down to the design text and the executed trace, and neither twin has
// built a view.
TEST(Campaign, TwinBuilderMatchesSeparateGeneration) {
    const gc::GenSpec spec;
    int built = 0;
    for (std::uint32_t seed : {100003u, 100004u, 300009u}) {
        for (auto kind : gmdf::codegen::all_fault_kinds()) {
            SCOPED_TRACE(std::to_string(seed) + " " + gmdf::codegen::to_string(kind));
            gc::TwinScenarios twins = gc::make_twin_scenarios(spec, seed, kind);
            gc::MakeResult faulted = gc::make_generated_scenario(spec, seed, kind);
            if (faulted.scenario == nullptr) {
                EXPECT_EQ(twins.faulted, nullptr);
                EXPECT_EQ(twins.clean, nullptr);
                continue;
            }
            gc::MakeResult clean = gc::make_generated_scenario(spec, seed, std::nullopt);
            ASSERT_NE(twins.faulted, nullptr);
            ASSERT_NE(twins.clean, nullptr);
            ++built;
            EXPECT_EQ(twins.fault_description, faulted.fault_description);
            const std::pair<gp::Scenario*, gp::Scenario*> pairs[] = {
                {twins.faulted.get(), faulted.scenario.get()},
                {twins.clean.get(), clean.scenario.get()}};
            for (auto [twin, separate] : pairs) {
                EXPECT_EQ(twin->name, separate->name);
                EXPECT_EQ(gmdf::meta::write_model(twin->sys.model()),
                          gmdf::meta::write_model(separate->sys.model()));
                EXPECT_EQ(twin->target.network_latency(), separate->target.network_latency());
                ASSERT_TRUE(twin->controller().execute_line("run 400").ok());
                ASSERT_TRUE(separate->controller().execute_line("run 400").ok());
                EXPECT_EQ(twin->session->vcd(), separate->session->vcd());
                EXPECT_EQ(twin->session->divergences().size(),
                          separate->session->divergences().size());
                EXPECT_FALSE(twin->session->view_built());
            }
        }
    }
    EXPECT_GT(built, 10);
}

TEST(Campaign, EveryPairClassifiedAndDeterministic) {
    gc::CampaignConfig cfg;
    cfg.pairs = 25;
    cfg.seed = 3;
    gc::CampaignReport a = gc::run_campaign(cfg);
    ASSERT_EQ(a.pairs.size(), 25u);
    EXPECT_EQ(a.unclassified(), 0);
    EXPECT_GT(a.localized, 0);
    for (const gc::PairResult& p : a.pairs) {
        if (p.outcome == gc::Outcome::Localized) {
            EXPECT_NE(p.method, gc::Method::None) << "pair " << p.index;
            EXPECT_FALSE(p.detail.empty()) << "pair " << p.index;
        } else {
            EXPECT_EQ(p.method, gc::Method::None) << "pair " << p.index;
        }
    }
    // Each of the 5 kinds got 5 pairs, and tallies add up.
    for (auto kind : gmdf::codegen::all_fault_kinds()) {
        const gc::KindTally& k = a.by_kind.at(kind);
        EXPECT_EQ(k.pairs, 5);
        EXPECT_EQ(k.localized + k.clean + k.skipped, k.pairs);
        EXPECT_EQ(k.bisect + k.differential, k.localized);
    }

    gc::CampaignReport b = gc::run_campaign(cfg);
    EXPECT_EQ(a.summary_lines(), b.summary_lines());
    ASSERT_EQ(a.pairs.size(), b.pairs.size());
    for (std::size_t i = 0; i < a.pairs.size(); ++i) {
        EXPECT_EQ(a.pairs[i].outcome, b.pairs[i].outcome) << i;
        EXPECT_EQ(a.pairs[i].method, b.pairs[i].method) << i;
        EXPECT_EQ(a.pairs[i].step, b.pairs[i].step) << i;
    }
}

TEST(Campaign, StructuralFaultsLocalizeByBisect) {
    gc::CampaignConfig cfg;
    cfg.pairs = 10;
    cfg.seed = 1;
    gc::CampaignReport r = gc::run_campaign(cfg);
    // Wrong-initial-state always produces a divergence the bisect pins.
    const gc::KindTally& wis =
        r.by_kind.at(gmdf::codegen::FaultKind::WrongInitialState);
    EXPECT_EQ(wis.localized, wis.pairs);
    EXPECT_EQ(wis.bisect, wis.localized);
}

TEST(Campaign, GuardlessModelsSkipNegateGuard) {
    gc::CampaignConfig cfg;
    cfg.pairs = 5; // one pair per fault kind
    cfg.gen.guards = false;
    gc::CampaignReport r = gc::run_campaign(cfg);
    EXPECT_EQ(r.unclassified(), 0);
    const gc::KindTally& ng = r.by_kind.at(gmdf::codegen::FaultKind::NegateGuard);
    EXPECT_EQ(ng.skipped, ng.pairs);
    for (const gc::PairResult& p : r.pairs) {
        if (p.kind == gmdf::codegen::FaultKind::NegateGuard) {
            EXPECT_EQ(p.outcome, gc::Outcome::Skipped);
        }
    }
}

// ---- differential trace comparison -----------------------------------------

TEST(Compare, FirstTraceDifferenceFindsEarliestDisagreement) {
    using gmdf::core::TraceEvent;
    using gmdf::link::Cmd;
    using gmdf::link::Command;
    std::deque<TraceEvent> a, b;
    for (int i = 0; i < 4; ++i)
        a.push_back({i * 10, Command{Cmd::SignalUpdate, 1, 0, static_cast<float>(i)}});
    b = a;
    EXPECT_FALSE(gmdf::replay::first_trace_difference(a, b).has_value());

    b[2].cmd.value = 99.0f;
    auto diff = gmdf::replay::first_trace_difference(a, b);
    ASSERT_TRUE(diff.has_value());
    EXPECT_EQ(diff->step, 2u);

    // A shorter observed stream after a clean prefix is a difference too.
    b = a;
    b.pop_back();
    diff = gmdf::replay::first_trace_difference(a, b);
    ASSERT_TRUE(diff.has_value());
    EXPECT_EQ(diff->step, 3u);
}

// ---- .gds extension language ------------------------------------------------

/// Records executed lines; "boom" errors, "val" answers "value 7".
class FakeClient final : public gp::ScriptClient {
public:
    gp::Response execute_line(std::string_view line) override {
        lines.emplace_back(line);
        if (line == "boom")
            return gp::Response::make_error(gp::ErrorCode::NotFound, "no boom here");
        if (line == "val") return gp::Response::make_ok({"value 7"});
        return gp::Response::make_ok({std::string(line) + " done"});
    }
    std::vector<std::string> drain_event_lines() override { return {}; }

    std::vector<std::string> lines;
};

gp::ScriptResult run(FakeClient& client, const std::string& text, std::string* out = nullptr) {
    std::istringstream in(text);
    std::ostringstream os;
    auto result = gp::run_script(client, in, os);
    if (out != nullptr) *out = os.str();
    return result;
}

TEST(Gds, LetAndRepeatSubstitute) {
    FakeClient client;
    std::string out;
    auto result = run(client, "let n 3\nrepeat $n\nping\nend\n", &out);
    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.requests, 3u);
    EXPECT_EQ(client.lines, (std::vector<std::string>{"ping", "ping", "ping"}));
    EXPECT_NE(out.find("> let n 3\n"), std::string::npos);
    EXPECT_NE(out.find("> repeat 3\n"), std::string::npos);
    EXPECT_NE(out.find("> end\n"), std::string::npos);
}

TEST(Gds, NestedRepeatAndDollarEscape) {
    FakeClient client;
    auto result = run(client, "repeat 2\nrepeat 2\nping $$x\nend\nend\n");
    EXPECT_FALSE(result.failed);
    ASSERT_EQ(client.lines.size(), 4u);
    EXPECT_EQ(client.lines[0], "ping $x");
}

TEST(Gds, IfTakesMatchingBranch) {
    FakeClient client;
    auto result = run(client, "if val == 7\nyes\nelse\nno\nend\n");
    EXPECT_FALSE(result.failed);
    EXPECT_EQ(client.lines, (std::vector<std::string>{"val", "yes"}));

    client.lines.clear();
    result = run(client, "if val == 8\nyes\nelse\nno\nend\n");
    EXPECT_FALSE(result.failed);
    EXPECT_EQ(client.lines, (std::vector<std::string>{"val", "no"}));
}

TEST(Gds, ExpectPassesAndFailsWithLineNumber) {
    FakeClient client;
    EXPECT_FALSE(run(client, "expect val == 7\nexpect val >= 6\n"
                             "expect val contains value\n")
                     .failed);

    auto result = run(client, "ping\nexpect val == 8\nnever\n");
    EXPECT_TRUE(result.failed);
    ASSERT_EQ(result.diagnostics.size(), 1u);
    EXPECT_EQ(result.diagnostics[0].line, 2);
    EXPECT_NE(result.diagnostics[0].message.find("expect failed"), std::string::npos);
    EXPECT_NE(result.diagnostics[0].message.find("'7'"), std::string::npos);
    // Execution stopped at the failed expect.
    EXPECT_EQ(client.lines.back(), "val");
}

TEST(Gds, ExpectBlockMatchesBodyAndReportsMismatchLine) {
    FakeClient client;
    EXPECT_FALSE(run(client, "expect-block val\n| value 7\nend\n").failed);

    auto result = run(client, "ping\nexpect-block val\n| value 8\nend\n");
    EXPECT_TRUE(result.failed);
    ASSERT_EQ(result.diagnostics.size(), 1u);
    EXPECT_EQ(result.diagnostics[0].line, 3); // the mismatching body line
    EXPECT_NE(result.diagnostics[0].message.find("expect-block mismatch"),
              std::string::npos);
}

TEST(Gds, ErrorResponsesCarryLineNumberedDiagnostics) {
    FakeClient client;
    auto result = run(client, "ping\nboom\npong\n");
    EXPECT_FALSE(result.failed); // error responses don't stop the script
    EXPECT_EQ(result.errors, 1u);
    ASSERT_EQ(result.diagnostics.size(), 1u);
    EXPECT_EQ(result.diagnostics[0].line, 2);
    EXPECT_EQ(result.diagnostics[0].text, "boom");
    EXPECT_NE(result.diagnostics[0].message.find("no boom here"), std::string::npos);
}

TEST(Gds, MalformedConstructsFail) {
    FakeClient client;
    auto result = run(client, "repeat 2\nping\n");
    EXPECT_TRUE(result.failed);
    ASSERT_FALSE(result.diagnostics.empty());
    EXPECT_NE(result.diagnostics[0].message.find("without matching 'end'"),
              std::string::npos);

    EXPECT_TRUE(run(client, "end\n").failed);
    EXPECT_TRUE(run(client, "else\n").failed);
    EXPECT_TRUE(run(client, "ping $nosuch\n").failed);
    EXPECT_TRUE(run(client, "repeat banana\nping\nend\n").failed);
}

// ---- golden campaign transcript --------------------------------------------

TEST(Golden, CampaignScriptTranscriptIsByteStable) {
    gmdf::hub::HubController hub;
    ASSERT_NE(hub.open("blinker", "blinker"), nullptr);
    std::ifstream script(std::string(GMDF_SOURCE_DIR) + "/examples/campaign.gds");
    ASSERT_TRUE(script) << "missing examples/campaign.gds";
    std::ostringstream out;
    auto result = gp::run_script(hub, script, out);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_FALSE(result.failed);
    EXPECT_TRUE(result.quit);

    std::ifstream golden_file(std::string(GMDF_SOURCE_DIR) +
                              "/tests/golden/campaign_transcript.txt");
    ASSERT_TRUE(golden_file) << "missing tests/golden/campaign_transcript.txt";
    std::ostringstream golden;
    golden << golden_file.rdbuf();
    EXPECT_EQ(out.str(), golden.str());
}

} // namespace
