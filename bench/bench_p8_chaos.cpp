// P8 — the debug service under injected network faults: an in-process
// hub + net::Server behind a seeded net::ChaosProxy, driven by
// reconnect-enabled net::Channel clients at rising fault rates
// (0% / 1% / 10% of forwarded chunks). Reports sustained requests/sec
// and p50/p99 request latency per level — the p99 is where torn
// frames, stalls, and redials live — plus the mean
// reconnect-and-resume latency (dial + handshake + re-attach). Each
// level runs kRepeats times on a fresh hub, server and proxy with the
// same fault seed: rates and latencies are spreads over the repeats,
// counts are their totals. Writes BENCH_p8_chaos.json (CI smoke step).
//
// Requests are read-mostly (query signal) so the levels measure the
// protocol and recovery path, not simulation cost. Every client rides
// the public Channel redial machinery; a request that comes back as a
// structured error (a corrupted byte diagnosed downstream) still
// counts as a completed round trip — that is the designed degraded
// mode, and its latency belongs in the distribution.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "campaign/chaos.hpp"
#include "hub/controller.hpp"
#include "net/chaos.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

using namespace gmdf;
using benchjson::Clock;
using benchjson::kRepeats;
using benchjson::spread_of;

namespace {

constexpr int kClients = 8;
constexpr double kSeconds = 2.0;

/// One run of one level.
struct LevelRun {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t lost_clients = 0;
    double rps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double mean_resume_us = 0.0;
    net::ChaosStats proxy;
};

LevelRun run_level(double fault_rate, std::uint32_t seed) {
    LevelRun result;

    hub::HubController hub;
    for (int i = 0; i < kClients; ++i)
        if (hub.open("blinker", "c" + std::to_string(i)) == nullptr) return result;

    // The idle timeout converts a wedged mid-frame connection (e.g. a
    // corrupted length prefix) into an EOF the clients recover from.
    net::ServerConfig server_cfg;
    server_cfg.idle_timeout_ms = 250;
    net::Server server(hub, server_cfg);
    if (!server.start()) return result;
    std::atomic<bool> stop_server{false};
    std::thread server_thread([&] { server.run(stop_server); });

    net::ChaosConfig chaos;
    chaos.upstream_port = server.port();
    chaos.seed = seed;
    chaos.fault_rate = fault_rate;
    net::ChaosProxy proxy(chaos);
    if (!proxy.start()) {
        stop_server.store(true);
        server_thread.join();
        return result;
    }
    std::atomic<bool> stop_proxy{false};
    std::thread proxy_thread([&] { proxy.run(stop_proxy); });

    struct ClientTally {
        std::vector<double> latencies_us;
        std::uint64_t requests = 0;
        std::uint64_t errors = 0;
        std::uint64_t reconnects = 0;
        std::int64_t reconnect_time_us = 0;
        bool lost = false;
    };
    std::vector<ClientTally> tallies(kClients);

    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(static_cast<int>(kSeconds * 1000));
    std::vector<std::thread> workers;
    workers.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        workers.emplace_back([&, i] {
            ClientTally& tally = tallies[static_cast<std::size_t>(i)];
            std::string error;
            std::unique_ptr<net::Channel> channel;
            for (int attempt = 0; attempt < 8 && channel == nullptr; ++attempt)
                channel = net::Channel::connect("127.0.0.1", proxy.port(), &error);
            if (channel == nullptr) {
                tally.lost = true;
                return;
            }
            net::Channel::ReconnectConfig rc;
            rc.max_attempts = 8;
            rc.base_delay_ms = 2;
            rc.max_delay_ms = 100;
            rc.jitter_seed = seed * 2654435761u + static_cast<std::uint32_t>(i);
            channel->set_reconnect(rc);
            (void)channel->execute_line("attach c" + std::to_string(i));
            (void)channel->drain_event_lines();

            while (Clock::now() < deadline) {
                const Clock::time_point t0 = Clock::now();
                proto::Response resp = channel->execute_line("query signal led");
                (void)channel->drain_event_lines();
                tally.latencies_us.push_back(benchjson::us_since(t0));
                ++tally.requests;
                // An error response is normal here: a corrupted byte
                // becomes the hub's structured error, and a
                // protocol-error frame is redialed and resent once
                // before it surfaces. Lost is judged once, at the end.
                if (!resp.ok()) ++tally.errors;
            }
            proto::Response probe = channel->execute_line("info");
            (void)channel->drain_event_lines();
            tally.reconnects = channel->reconnects();
            tally.reconnect_time_us = channel->reconnect_time_us();
            tally.lost = campaign::chaos_outcome(probe, tally.errors, tally.reconnects) ==
                         campaign::ChaosOutcome::Lost;
        });
    }
    const Clock::time_point start = Clock::now();
    for (std::thread& t : workers) t.join();
    const double seconds = benchjson::us_since(start) / 1e6;

    stop_proxy.store(true);
    proxy_thread.join();
    stop_server.store(true);
    server_thread.join();

    std::vector<double> all_us;
    std::int64_t resume_us = 0;
    for (const ClientTally& tally : tallies) {
        result.requests += tally.requests;
        result.errors += tally.errors;
        result.reconnects += tally.reconnects;
        resume_us += tally.reconnect_time_us;
        if (tally.lost) ++result.lost_clients;
        all_us.insert(all_us.end(), tally.latencies_us.begin(),
                      tally.latencies_us.end());
    }
    result.rps = seconds > 0 ? static_cast<double>(result.requests) / seconds : 0.0;
    result.p50_us = benchjson::percentile(all_us, 0.50);
    result.p99_us = benchjson::percentile(all_us, 0.99);
    result.mean_resume_us =
        result.reconnects > 0
            ? static_cast<double>(resume_us) / static_cast<double>(result.reconnects)
            : 0.0;
    result.proxy = proxy.stats();
    return result;
}

struct LevelResult {
    double fault_rate = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t lost_clients = 0;
    benchjson::Spread rps;
    benchjson::Spread p50_us;
    benchjson::Spread p99_us;
    benchjson::Spread mean_resume_us;
    net::ChaosStats proxy;
};

LevelResult bench_level(double fault_rate, std::uint32_t seed) {
    LevelResult r;
    r.fault_rate = fault_rate;
    std::vector<double> rps, p50, p99, resume;
    for (int i = 0; i < kRepeats; ++i) {
        const LevelRun run = run_level(fault_rate, seed);
        r.requests += run.requests;
        r.errors += run.errors;
        r.reconnects += run.reconnects;
        r.lost_clients += run.lost_clients;
        r.proxy.chunks += run.proxy.chunks;
        r.proxy.torn += run.proxy.torn;
        r.proxy.stalls += run.proxy.stalls;
        r.proxy.disconnects += run.proxy.disconnects;
        r.proxy.corruptions += run.proxy.corruptions;
        rps.push_back(run.rps);
        p50.push_back(run.p50_us);
        p99.push_back(run.p99_us);
        resume.push_back(run.mean_resume_us);
    }
    r.rps = spread_of(rps);
    r.p50_us = spread_of(p50);
    r.p99_us = spread_of(p99);
    r.mean_resume_us = spread_of(resume);
    return r;
}

} // namespace

int main(int argc, char** argv) {
    const char* out_path = argc > 1 ? argv[1] : "BENCH_p8_chaos.json";
    const double rates[] = {0.0, 0.01, 0.10};

    std::vector<LevelResult> levels;
    for (double rate : rates) {
        LevelResult level = bench_level(rate, /*seed=*/42);
        std::printf("fault %4.1f%%: %8.0f req/s  p50 %8.1f us  p99 %9.1f us  "
                    "%llu reconnects (mean resume %.0f us)  %llu errors  %llu lost\n",
                    rate * 100.0, level.rps.median, level.p50_us.median,
                    level.p99_us.median, static_cast<unsigned long long>(level.reconnects),
                    level.mean_resume_us.median,
                    static_cast<unsigned long long>(level.errors),
                    static_cast<unsigned long long>(level.lost_clients));
        levels.push_back(level);
    }

    benchjson::Writer w;
    benchjson::begin_report(w, "p8_chaos");
    w.kv("clients", kClients);
    w.key("levels");
    w.begin_array();
    for (const LevelResult& level : levels) {
        w.begin_object(/*compact=*/true);
        w.kv("fault_rate", level.fault_rate, 2);
        w.kv("requests", level.requests);
        w.kv("errors", level.errors);
        w.spread("rps", level.rps, 0);
        w.spread("p50_us", level.p50_us, 1);
        w.spread("p99_us", level.p99_us, 1);
        w.kv("reconnects", level.reconnects);
        w.spread("mean_resume_us", level.mean_resume_us, 0);
        w.kv("lost_clients", level.lost_clients);
        w.key("proxy");
        w.begin_object();
        w.kv("chunks", level.proxy.chunks);
        w.kv("torn", level.proxy.torn);
        w.kv("stalls", level.proxy.stalls);
        w.kv("disconnects", level.proxy.disconnects);
        w.kv("corruptions", level.proxy.corruptions);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write_file(out_path)) return 1;
    std::printf("wrote %s\n", out_path);
    return 0;
}
