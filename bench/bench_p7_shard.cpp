// P7 — sharded fleet throughput: what partitioning the fleet pump
// across worker threads buys. Pumps scripted fleets of 512..4096
// sessions for a fixed simulated span at 1/2/4/8 threads and reports
// sessions per wall-second, a mid-pump fairness snapshot (min/max
// simulated time any session has consumed when the first one crosses
// the halfway mark — a starving fleet shows a wide spread), and steal
// counts; then the end-to-end campaign rate at 1 and 4 threads. Each
// row runs kRepeats times. Writes BENCH_p7_shard.json (CI smoke step).
//
// Thread scaling is hardware-bound: read the curve against the report's
// host.cpus, so a single-core container's flat curve is not mistaken for
// a scheduler defect.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "campaign/runner.hpp"
#include "comdes/build.hpp"
#include "core/session.hpp"
#include "hub/registry.hpp"
#include "hub/sharded.hpp"
#include "proto/scenarios.hpp"

using namespace gmdf;
using benchjson::Clock;
using benchjson::kRepeats;
using benchjson::Spread;
using benchjson::spread_of;
using benchjson::us_since;

namespace {

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

/// One pump of a freshly built fleet.
struct FleetRun {
    double total_ms = 0;
    std::uint64_t steals = 0;
    double fairness_min_ms = 0; ///< least-served session at the half-way sample
    double fairness_max_ms = 0; ///< most-served session at the same instant
};

FleetRun pump_fleet(int sessions, int threads) {
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

    FleetRun run;
    run.total_ms = us_since(t0) / 1000.0;
    run.steals = scheduler.total_steals();
    run.fairness_min_ms = static_cast<double>(sample_min) / rt::kMs;
    run.fairness_max_ms = static_cast<double>(sample_max) / rt::kMs;
    return run;
}

/// Every session gets kSpan / budget slices, so slices/s is a fixed
/// multiple of sessions/s and is not reported on its own.
struct FleetRate {
    std::string name;
    int sessions = 0;
    int threads = 0;
    Spread total_ms;
    Spread sessions_per_s; ///< fleet size / wall time for the fixed span
    Spread steals;
    double fairness_min_ms = 0; ///< FleetRun's, lowest over the repeats
    double fairness_max_ms = 0; ///< FleetRun's, highest over the repeats
};

FleetRate bench_fleet(int sessions, int threads) {
    FleetRate r;
    r.name = "fleet_" + std::to_string(sessions) + "_t" + std::to_string(threads);
    r.sessions = sessions;
    r.threads = threads;
    std::vector<double> total_ms, rate, steals;
    for (int i = 0; i < kRepeats; ++i) {
        const FleetRun run = pump_fleet(sessions, threads);
        total_ms.push_back(run.total_ms);
        rate.push_back(sessions / (run.total_ms / 1000.0));
        steals.push_back(static_cast<double>(run.steals));
        r.fairness_min_ms = i == 0 ? run.fairness_min_ms
                                   : std::min(r.fairness_min_ms, run.fairness_min_ms);
        r.fairness_max_ms = std::max(r.fairness_max_ms, run.fairness_max_ms);
    }
    r.total_ms = spread_of(total_ms);
    r.sessions_per_s = spread_of(rate);
    r.steals = spread_of(steals);
    return r;
}

struct CampaignRate {
    std::string name;
    int pairs = 0;
    int threads = 0;
    Spread total_ms;
    Spread pairs_per_s;
};

CampaignRate bench_campaign(int pairs, int threads) {
    campaign::CampaignConfig cfg;
    cfg.pairs = pairs;
    cfg.seed = 1;
    cfg.threads = threads;

    std::vector<double> total_ms, rate;
    for (int i = 0; i < kRepeats; ++i) {
        auto t0 = Clock::now();
        (void)campaign::run_campaign(cfg);
        total_ms.push_back(us_since(t0) / 1000.0);
        rate.push_back(pairs / (total_ms.back() / 1000.0));
    }
    return {"campaign_" + std::to_string(pairs) + "_t" + std::to_string(threads),
            pairs, threads, spread_of(total_ms), spread_of(rate)};
}

} // namespace

int main(int argc, char** argv) {
    const char* out_path = argc > 1 ? argv[1] : "BENCH_p7_shard.json";

    std::vector<FleetRate> fleets;
    for (int sessions : {512, 1024, 2048, 4096})
        for (int threads : {1, 2, 4, 8})
            fleets.push_back(bench_fleet(sessions, threads));

    std::vector<CampaignRate> campaigns;
    campaigns.push_back(bench_campaign(200, 1));
    campaigns.push_back(bench_campaign(200, 4));

    std::printf("%-16s %8s %8s %10s %12s %8s %16s\n", "fleet", "sessions", "threads",
                "total ms", "sessions/s", "steals", "fair min/max ms");
    for (const auto& f : fleets)
        std::printf("%-16s %8d %8d %10.1f %12.0f %8.0f %8.0f/%.0f\n", f.name.c_str(),
                    f.sessions, f.threads, f.total_ms.median, f.sessions_per_s.median,
                    f.steals.median, f.fairness_min_ms, f.fairness_max_ms);
    std::printf("\n%-24s %8s %8s %10s %10s\n", "campaign", "pairs", "threads",
                "total ms", "pairs/s");
    for (const auto& c : campaigns)
        std::printf("%-24s %8d %8d %10.1f %10.1f\n", c.name.c_str(), c.pairs, c.threads,
                    c.total_ms.median, c.pairs_per_s.median);

    benchjson::Writer w;
    benchjson::begin_report(w, "p7_shard");
    w.key("fleet");
    w.begin_array();
    for (const auto& r : fleets) {
        w.begin_object(/*compact=*/true);
        w.kv("name", r.name);
        w.kv("sessions", r.sessions);
        w.kv("threads", r.threads);
        w.spread("total_ms", r.total_ms, 1);
        w.spread("sessions_per_s", r.sessions_per_s, 0);
        w.spread("steals", r.steals, 0);
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
        w.spread("total_ms", c.total_ms, 1);
        w.spread("pairs_per_s", c.pairs_per_s, 1);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write_file(out_path)) return 1;
    std::printf("\nwrote %s\n", out_path);
    return 0;
}
