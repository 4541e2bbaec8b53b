// P7 — sharded fleet throughput: what partitioning the fleet pump
// across worker threads buys. Pumps scripted fleets of 512..4096
// sessions for a fixed simulated span at 1/2/4/8 threads and reports
// sessions per wall-second, a mid-pump fairness snapshot (min/max
// simulated time any session has consumed when the first one crosses
// the halfway mark — a starving fleet shows a wide spread), and steal
// counts; then the end-to-end campaign rate at 1 and 4 threads against
// BENCH_p6's serial baseline. Writes BENCH_p7_shard.json (CI smoke
// step).
//
// Thread scaling is hardware-bound: the JSON carries a "cpus" field so
// a single-core container's flat curve is not mistaken for a scheduler
// defect. CI's multi-core runners regenerate the scaling numbers.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "campaign/runner.hpp"
#include "comdes/build.hpp"
#include "core/builder.hpp"
#include "core/session.hpp"
#include "hub/registry.hpp"
#include "hub/sharded.hpp"
#include "proto/scenarios.hpp"

using namespace gmdf;
using Clock = std::chrono::steady_clock;

namespace {

double us_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// A minimal scripted session: one actor, a couple of transport events.
/// Cheap enough that the fleet bench measures scheduler bookkeeping and
/// shard handoff, not model execution.
std::unique_ptr<proto::Scenario> scripted_scenario(int index) {
    auto scenario = std::make_unique<proto::Scenario>("s" + std::to_string(index));
    auto& sys = scenario->sys;
    auto sig = sys.add_signal("x", "real_");
    auto actor = sys.add_actor("act", 10'000);
    auto sm = actor.add_sm("machine", {"go"}, {"out"});
    sm.add_state("idle", {{"out", "0"}});
    auto transport = std::make_unique<link::ScriptedTransport>();
    for (int i = 1; i <= 2; ++i)
        transport->push({link::Cmd::SignalUpdate, static_cast<std::uint32_t>(sig.raw),
                         0, static_cast<float>(i)},
                        i * 30 * rt::kMs);
    scenario->session = std::make_unique<core::DebugSession>(sys.model());
    scenario->session->attach(std::move(transport));
    return scenario;
}

struct FleetRate {
    std::string name;
    int sessions = 0;
    int threads = 0;
    double total_ms = 0;
    double sessions_per_s = 0; ///< fleet size / wall time for the fixed span
    double slices_per_s = 0;
    std::uint64_t steals = 0;
    double fairness_min_ms = 0; ///< least-served session at the half-way sample
    double fairness_max_ms = 0; ///< most-served session at the same instant
};

FleetRate bench_fleet(int sessions, int threads) {
    constexpr rt::SimTime kSpan = 100 * rt::kMs;

    hub::SessionRegistry registry;
    for (int i = 0; i < sessions; ++i)
        registry.adopt(scripted_scenario(i), "s" + std::to_string(i));

    hub::ShardedScheduler scheduler;
    scheduler.set_threads(threads);

    // Mid-pump fairness sample: the slice hook accumulates each
    // session's consumed span (every slice is one full budget here —
    // the budget divides kSpan); the first session to cross kSpan/2
    // freezes a snapshot of the whole fleet's progress.
    std::vector<std::atomic<long long>> advanced(
        static_cast<std::size_t>(sessions) + 1); // ids are 1-based
    std::atomic<bool> sampled{false};
    long long sample_min = 0;
    long long sample_max = 0;
    const rt::SimTime budget = scheduler.budget();
    auto hook = [&](hub::SessionRegistry::Entry& entry) {
        auto& mine = advanced[static_cast<std::size_t>(entry.id)];
        const long long now =
            mine.fetch_add(budget, std::memory_order_relaxed) + budget;
        if (now * 2 >= kSpan && !sampled.exchange(true, std::memory_order_acq_rel)) {
            long long min_v = kSpan;
            long long max_v = 0;
            for (int id = 1; id <= sessions; ++id) {
                const long long v =
                    advanced[static_cast<std::size_t>(id)].load(std::memory_order_relaxed);
                min_v = std::min(min_v, v);
                max_v = std::max(max_v, v);
            }
            sample_min = min_v;
            sample_max = max_v;
        }
    };

    auto t0 = Clock::now();
    scheduler.pump(registry, kSpan, hook);
    const double total_ms = us_since(t0) / 1000.0;

    FleetRate r;
    r.name = "fleet_" + std::to_string(sessions) + "_t" + std::to_string(threads);
    r.sessions = sessions;
    r.threads = threads;
    r.total_ms = total_ms;
    r.sessions_per_s = sessions / (total_ms / 1000.0);
    r.slices_per_s = static_cast<double>(scheduler.total_slices()) / (total_ms / 1000.0);
    r.steals = scheduler.total_steals();
    r.fairness_min_ms = static_cast<double>(sample_min) / rt::kMs;
    r.fairness_max_ms = static_cast<double>(sample_max) / rt::kMs;
    return r;
}

struct CampaignRate {
    std::string name;
    int pairs = 0;
    int threads = 0;
    double total_ms = 0;
    double pair_ms = 0;
    double pairs_per_s = 0;
};

CampaignRate bench_campaign(int pairs, int threads) {
    campaign::CampaignConfig cfg;
    cfg.pairs = pairs;
    cfg.seed = 1;
    cfg.threads = threads;

    auto t0 = Clock::now();
    auto report = campaign::run_campaign(cfg);
    const double total_ms = us_since(t0) / 1000.0;
    (void)report;

    CampaignRate r;
    r.name = "campaign_" + std::to_string(pairs) + "_wave8_t" + std::to_string(threads);
    r.pairs = pairs;
    r.threads = threads;
    r.total_ms = total_ms;
    r.pair_ms = total_ms / pairs;
    r.pairs_per_s = pairs / (total_ms / 1000.0);
    return r;
}

} // namespace

int main(int argc, char** argv) {
    const char* out_path = argc > 1 ? argv[1] : "BENCH_p7_shard.json";
    const unsigned cpus = std::thread::hardware_concurrency();

    std::vector<FleetRate> fleets;
    for (int sessions : {512, 1024, 2048, 4096})
        for (int threads : {1, 2, 4, 8})
            fleets.push_back(bench_fleet(sessions, threads));

    std::vector<CampaignRate> campaigns;
    campaigns.push_back(bench_campaign(200, 1));
    campaigns.push_back(bench_campaign(200, 4));

    std::printf("cpus %u\n\n", cpus);
    std::printf("%-16s %8s %8s %10s %12s %12s %8s %16s\n", "fleet", "sessions",
                "threads", "total ms", "sessions/s", "slices/s", "steals",
                "fair min/max ms");
    for (const auto& f : fleets)
        std::printf("%-16s %8d %8d %10.1f %12.0f %12.0f %8llu %8.0f/%.0f\n",
                    f.name.c_str(), f.sessions, f.threads, f.total_ms,
                    f.sessions_per_s, f.slices_per_s,
                    static_cast<unsigned long long>(f.steals), f.fairness_min_ms,
                    f.fairness_max_ms);
    std::printf("\n%-24s %8s %8s %10s %10s %10s\n", "campaign", "pairs", "threads",
                "total ms", "pair ms", "pairs/s");
    for (const auto& c : campaigns)
        std::printf("%-24s %8d %8d %10.1f %10.2f %10.1f\n", c.name.c_str(), c.pairs,
                    c.threads, c.total_ms, c.pair_ms, c.pairs_per_s);

    gmdf::benchjson::Writer w;
    w.begin_object();
    w.kv("bench", "p7_shard");
    w.kv("cpus", cpus);
    w.key("fleet");
    w.begin_array();
    for (const auto& r : fleets) {
        w.begin_object(/*compact=*/true);
        w.kv("name", r.name);
        w.kv("sessions", r.sessions);
        w.kv("threads", r.threads);
        w.kv("total_ms", r.total_ms, 1);
        w.kv("sessions_per_s", r.sessions_per_s, 0);
        w.kv("slices_per_s", r.slices_per_s, 0);
        w.kv("steals", r.steals);
        w.kv("fairness_min_ms", r.fairness_min_ms, 0);
        w.kv("fairness_max_ms", r.fairness_max_ms, 0);
        w.end_object();
    }
    w.end_array();
    w.key("campaigns");
    w.begin_array();
    for (const auto& c : campaigns) {
        w.begin_object(/*compact=*/true);
        w.kv("name", c.name);
        w.kv("pairs", c.pairs);
        w.kv("threads", c.threads);
        w.kv("total_ms", c.total_ms, 1);
        w.kv("pair_ms", c.pair_ms, 2);
        w.kv("pairs_per_s", c.pairs_per_s, 1);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write_file(out_path)) return 1;
    std::printf("\nwrote %s\n", out_path);
    return 0;
}
