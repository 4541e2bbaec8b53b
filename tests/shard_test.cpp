// Tests for the sharded fleet pump: the per-session determinism
// contract (a session's transcript and event stream are identical at 1
// thread and N threads), full-duration fairness across shards, work
// stealing off overloaded shards, the `session stats shards` hub verb,
// parallel_for's index coverage, and campaign report equality at any
// thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "hub/controller.hpp"
#include "hub/registry.hpp"
#include "hub/sharded.hpp"
#include "proto/script.hpp"
#include "scripted_scenario.hpp"

namespace gca = gmdf::campaign;
namespace gh = gmdf::hub;
namespace gp = gmdf::proto;
namespace rt = gmdf::rt;

namespace {

using gmdf::test::scripted_scenario;

std::string run_script_on_hub(gh::HubController& hub, const std::string& script_name) {
    std::ifstream script(std::string(GMDF_SOURCE_DIR) + "/examples/" + script_name);
    EXPECT_TRUE(script) << "missing examples/" << script_name;
    std::ostringstream out;
    auto result = gp::run_script(hub, script, out);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_TRUE(result.quit);
    return out.str();
}

// Splits a transcript into the per-session event streams (lines tagged
// "[name] ...") and everything else (response lines, in script order).
// Cross-session interleaving is the one thing a sharded pump may
// legitimately change, so equality is asserted per stream.
std::map<std::string, std::vector<std::string>> split_streams(const std::string& text) {
    std::map<std::string, std::vector<std::string>> streams;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::string key; // "" = untagged (responses, script echo)
        if (!line.empty() && line.front() == '[') {
            auto end = line.find(']');
            if (end != std::string::npos) key = line.substr(1, end - 1);
        }
        streams[key].push_back(line);
    }
    return streams;
}

// ---- determinism contract ---------------------------------------------------

TEST(Determinism, SingleSessionTranscriptMatchesQuickstartGolden) {
    // threads=4 on a one-session hub must still produce the exact
    // single-threaded bytes (the quickstart golden is recorded against a
    // bare single-threaded SessionController).
    gh::HubController hub;
    hub.scheduler().set_threads(4);
    ASSERT_NE(hub.open("blinker", "blinker"), nullptr);
    const std::string out = run_script_on_hub(hub, "quickstart.gds");

    std::ifstream golden_file(std::string(GMDF_SOURCE_DIR) +
                              "/tests/golden/quickstart_transcript.txt");
    ASSERT_TRUE(golden_file) << "missing tests/golden/quickstart_transcript.txt";
    std::ostringstream golden;
    golden << golden_file.rdbuf();
    EXPECT_EQ(out, golden.str());
}

TEST(Determinism, PerSessionEventStreamsIdenticalAcrossThreadCounts) {
    // The fleet script runs two breakpointed sessions concurrently.
    // Response lines and each session's own event stream must be
    // byte-identical at 1 and 4 threads; only the cross-session merge
    // order may move.
    std::string outs[2];
    const int threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        gh::HubController hub;
        hub.scheduler().set_threads(threads[i]);
        ASSERT_NE(hub.open("blinker", "blinker"), nullptr);
        outs[i] = run_script_on_hub(hub, "fleet.gds");
    }
    auto serial = split_streams(outs[0]);
    auto sharded = split_streams(outs[1]);
    ASSERT_EQ(serial.size(), sharded.size());
    for (const auto& [key, lines] : serial) {
        ASSERT_TRUE(sharded.contains(key)) << "stream '" << key << "' vanished";
        EXPECT_EQ(sharded.at(key), lines)
            << "stream '" << key << "' changed under a sharded pump";
    }
}

// ---- fairness and stealing --------------------------------------------------

TEST(Sharding, EverySessionConsumesTheFullDuration) {
    // 16 sessions over 4 shards, and 3 sessions on a single worker.
    for (const auto& [threads, sessions] : {std::pair{4, 16}, std::pair{1, 3}}) {
        gh::SessionRegistry registry;
        for (int i = 0; i < sessions; ++i)
            ASSERT_NE(registry.adopt(scripted_scenario("s", 4, 20 * rt::kMs).scenario,
                                     "s" + std::to_string(i)),
                      nullptr);
        gh::ShardedScheduler scheduler;
        scheduler.set_threads(threads);
        std::mutex mu;
        std::vector<int> order;
        scheduler.pump(registry, 100 * rt::kMs, [&](gh::SessionRegistry::Entry& e) {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(e.id);
        });

        for (const auto& e : registry.entries())
            EXPECT_EQ(e->scenario->target.sim().now(), 100 * rt::kMs)
                << "session " << e->id << " shortchanged";
        // 100 ms / 10 ms default budget, per session.
        const auto slices = static_cast<std::uint64_t>(sessions) * 10u;
        EXPECT_EQ(scheduler.total_slices(), slices);
        EXPECT_EQ(order.size(), slices);

        // The deal covered every shard evenly and dealt the whole fleet.
        int dealt = 0;
        std::uint64_t sliced = 0;
        for (const auto& shard : scheduler.shard_stats()) {
            dealt += shard.sessions;
            sliced += shard.slices;
            EXPECT_EQ(shard.sessions, sessions / threads);
        }
        EXPECT_EQ(dealt, sessions);
        EXPECT_EQ(sliced, slices);

        // One worker services the fleet round-robin in registry order:
        // 1 2 3 1 2 3 ...
        if (threads == 1) {
            std::vector<int> expected;
            for (int round = 0; round < 10; ++round)
                for (const auto& e : registry.entries()) expected.push_back(e->id);
            EXPECT_EQ(order, expected);
        }
    }
}

TEST(Sharding, IdleWorkersStealFromOverloadedShards) {
    // Sessions 0,4,8,12 all land on shard 0 under a 4-way deal; make
    // exactly those four expensive (a dense command flood) and the rest
    // trivial, so shards 1-3 run dry while shard 0 still has queued
    // work — which idle workers must then steal.
    gh::SessionRegistry registry;
    for (int i = 0; i < 16; ++i) {
        const bool heavy = i % 4 == 0;
        auto scenario = heavy ? scripted_scenario("h", 20000, 10 * rt::kUs).scenario
                              : scripted_scenario("l", 2, 50 * rt::kMs).scenario;
        ASSERT_NE(registry.adopt(std::move(scenario), "s" + std::to_string(i)),
                  nullptr);
    }
    gh::ShardedScheduler scheduler;
    scheduler.set_threads(4);
    scheduler.pump(registry, 200 * rt::kMs);

    for (const auto& e : registry.entries())
        EXPECT_EQ(e->scenario->target.sim().now(), 200 * rt::kMs) << "session " << e->id;
    EXPECT_EQ(scheduler.total_slices(), 320u); // 16 x 200 ms / 10 ms budget
    EXPECT_GE(scheduler.total_steals(), 1u)
        << "idle shards never relieved the overloaded one";
}

TEST(Sharding, ThreadsClampAndBudgetValidation) {
    gh::ShardedScheduler scheduler;
    scheduler.set_threads(0);
    EXPECT_EQ(scheduler.threads(), 1);
    scheduler.set_threads(100000);
    EXPECT_EQ(scheduler.threads(), 256);
    EXPECT_EQ(scheduler.shard_stats().size(), 256u);
    EXPECT_THROW(scheduler.set_budget(0), std::invalid_argument);
    EXPECT_THROW(scheduler.set_budget(-1), std::invalid_argument);
}

// ---- hub verb ---------------------------------------------------------------

TEST(HubVerb, SessionStatsShardsIsBadStateWhenSingleThreaded) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    auto resp = hub.execute_line("session stats shards");
    EXPECT_EQ(resp.code, gp::ErrorCode::BadState);
    EXPECT_NE(resp.message.find("--threads"), std::string::npos);
}

TEST(HubVerb, SessionStatsShardsReportsTheSplit) {
    gh::HubController hub;
    hub.scheduler().set_threads(2);
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    ASSERT_NE(hub.open("blinker", "b"), nullptr);
    ASSERT_TRUE(hub.execute_line("run 50").ok());

    auto resp = hub.execute_line("session stats shards");
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp.body.size(), 4u); // header, 2 shard rows, steals total
    EXPECT_EQ(resp.body[0], "shards 2 (budget 10 ms)");
    EXPECT_NE(resp.body[1].find("shard 0: sessions 1"), std::string::npos);
    EXPECT_NE(resp.body[2].find("shard 1: sessions 1"), std::string::npos);
    EXPECT_NE(resp.body[3].find("steals-total"), std::string::npos);

    // `sessions` is the last pump's deal: with one live session left,
    // shard 1 was dealt nothing.
    ASSERT_TRUE(hub.execute_line("session close b").ok());
    ASSERT_TRUE(hub.execute_line("run 50").ok());
    resp = hub.execute_line("session stats shards");
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp.body.size(), 4u);
    EXPECT_NE(resp.body[1].find("shard 0: sessions 1"), std::string::npos) << resp.body[1];
    EXPECT_NE(resp.body[2].find("shard 1: sessions 0"), std::string::npos) << resp.body[2];

    // A registry with no live session is dealt onto no shard at all.
    gh::SessionRegistry idle;
    gh::SessionRegistry::Entry* quarantined = idle.open("blinker", "q");
    ASSERT_NE(quarantined, nullptr);
    quarantined->mark_faulted("quarantined");
    hub.scheduler().pump(idle, 50 * rt::kMs);
    resp = hub.execute_line("session stats shards");
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp.body.size(), 4u);
    EXPECT_NE(resp.body[1].find("shard 0: sessions 0"), std::string::npos) << resp.body[1];
    EXPECT_NE(resp.body[2].find("shard 1: sessions 0"), std::string::npos) << resp.body[2];
}

// ---- parallel_for ----------------------------------------------------------

TEST(ParallelFor, RunsEachIndexExactlyOnce) {
    for (const auto& [n, threads] : {std::pair{0, 4}, std::pair{1, 4}, std::pair{5, 1},
                                     std::pair{5, 3}, std::pair{7, 64}}) {
        std::mutex mu;
        std::vector<int> order;
        std::set<std::thread::id> workers;
        gh::parallel_for(n, threads, [&](int i) {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(i);
            workers.insert(std::this_thread::get_id());
        });
        std::vector<int> each(static_cast<std::size_t>(n));
        std::iota(each.begin(), each.end(), 0);
        std::vector<int> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, each) << "n " << n << ", threads " << threads;
        EXPECT_LE(workers.size(), static_cast<std::size_t>(std::min(n, threads)));
        if (threads == 1) {
            // One worker: the calling thread, in index order.
            EXPECT_EQ(workers, std::set<std::thread::id>{std::this_thread::get_id()});
            EXPECT_EQ(order, each);
        }
    }
}

// ---- campaign ---------------------------------------------------------------

void expect_same_report(const gca::CampaignReport& expected, const gca::CampaignReport& got,
                        const std::string& what) {
    EXPECT_EQ(expected.summary_lines(), got.summary_lines()) << what;
    ASSERT_EQ(expected.pairs.size(), got.pairs.size()) << what;
    for (std::size_t i = 0; i < expected.pairs.size(); ++i) {
        const auto& a = expected.pairs[i];
        const auto& b = got.pairs[i];
        EXPECT_EQ(a.index, b.index) << what << ", pair " << i;
        EXPECT_EQ(a.model_seed, b.model_seed) << what << ", pair " << a.index;
        EXPECT_EQ(a.kind, b.kind) << what << ", pair " << a.index;
        EXPECT_EQ(a.outcome, b.outcome) << what << ", pair " << a.index;
        EXPECT_EQ(a.method, b.method) << what << ", pair " << a.index;
        EXPECT_EQ(a.step, b.step) << what << ", pair " << a.index;
        EXPECT_EQ(a.t, b.t) << what << ", pair " << a.index;
        EXPECT_EQ(a.probes, b.probes) << what << ", pair " << a.index;
        EXPECT_EQ(a.detail, b.detail) << what << ", pair " << a.index;
    }
}

TEST(Campaign, ReportIdenticalAtAnyThreadCount) {
    // The second batch draws guardless models, so every negate-guard pair
    // is skipped inside a worker.
    gca::CampaignConfig batches[2];
    batches[0].pairs = 20;
    batches[0].seed = 5;
    batches[1].pairs = 37;
    batches[1].seed = 3;
    batches[1].gen.guards = false;
    for (const gca::CampaignConfig& serial_cfg : batches) {
        const gca::CampaignReport serial = gca::run_campaign(serial_cfg);
        EXPECT_EQ(serial.unclassified(), 0);
        if (!serial_cfg.gen.guards) {
            EXPECT_GT(serial.by_kind.at(gmdf::codegen::FaultKind::NegateGuard).skipped, 0);
        }
        for (int threads : {2, 3, 4, 8}) {
            gca::CampaignConfig cfg = serial_cfg;
            cfg.threads = threads;
            expect_same_report(serial, gca::run_campaign(cfg),
                               "seed " + std::to_string(cfg.seed) + ", " +
                                   std::to_string(cfg.pairs) + " pairs, threads " +
                                   std::to_string(threads));
        }
    }
}

TEST(Campaign, HugeThreadCountMatchesSerialReport) {
    // parallel_for starts min(threads, pairs, hub::kMaxThreads) workers:
    // 3 here, not a million.
    gca::CampaignConfig serial_cfg;
    serial_cfg.pairs = 3;
    gca::CampaignConfig cfg = serial_cfg;
    cfg.threads = 1'000'000;
    expect_same_report(gca::run_campaign(serial_cfg), gca::run_campaign(cfg),
                       "threads 1000000");
}

} // namespace
