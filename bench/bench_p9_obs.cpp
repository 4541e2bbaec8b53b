// P9 — cost of the observability layer (src/obs/).
//
// The contract the instrumentation rides on: with metrics enabled the
// dispatch path stays within 5% of the metrics-off baseline, and with
// everything off the residual cost is one relaxed atomic load per probe.
// This bench prices each piece:
//
//   dispatch        full Controller::execute("info") with (a) metrics off,
//                   (b) metrics on (the verb's latency histogram),
//                   (c) metrics + tracer on (span per dispatch), plus the
//                   derived overhead percentages CI gates on
//   primitives      Counter::add and Histogram::record ns/op, enabled and
//                   disabled, and a disabled Span construct/destruct
//
// Output: human-readable summary on stdout and a machine-readable JSON
// report (default BENCH_p9_obs.json, or argv[1]) for CI trend tracking.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/scenarios.hpp"

using namespace gmdf;

namespace {

using Clock = std::chrono::steady_clock;

volatile std::uint64_t g_sink = 0; ///< defeats dead-code elimination

/// Best-of-rounds ns-per-call for `fn(i)` driven `iters` times.
template <typename Fn>
double time_ns(int iters, int rounds, Fn&& fn) {
    double best = 1e300;
    for (int r = 0; r < rounds; ++r) {
        auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i) fn(i);
        auto dt = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        best = std::min(best, dt / iters);
    }
    return best;
}

struct DispatchResult {
    double off_ns = 0.0;     ///< metrics disabled
    double metrics_ns = 0.0; ///< metrics enabled (per-verb latency histogram)
    double traced_ns = 0.0;  ///< metrics + tracer enabled (span per dispatch)
    [[nodiscard]] double metrics_pct() const {
        return (metrics_ns - off_ns) / off_ns * 100.0;
    }
    [[nodiscard]] double traced_pct() const {
        return (traced_ns - off_ns) / off_ns * 100.0;
    }
};

DispatchResult bench_dispatch() {
    auto scenario = proto::make_scenario("blinker");
    auto& ctl = scenario->controller();
    // One second of activity so the handler sees real state.
    (void)ctl.execute_line("run 1000");
    (void)ctl.drain_events();

    proto::Request req{"info", {}};
    auto drive = [&](int) {
        auto resp = ctl.execute(req);
        g_sink = g_sink + resp.body.size();
    };
    constexpr int kIters = 50'000;
    constexpr int kRounds = 5;

    DispatchResult r;
    obs::set_metrics_enabled(false);
    r.off_ns = time_ns(kIters, kRounds, drive);
    obs::set_metrics_enabled(true);
    r.metrics_ns = time_ns(kIters, kRounds, drive);
    obs::tracer().set_capacity(1 << 16);
    obs::tracer().start();
    r.traced_ns = time_ns(kIters, kRounds, drive);
    obs::tracer().stop();
    return r;
}

struct PrimResult {
    std::string name;
    double ns = 0.0;
};

std::vector<PrimResult> bench_primitives() {
    constexpr int kIters = 2'000'000;
    constexpr int kRounds = 5;
    obs::Counter counter;
    obs::Histogram hist;
    std::vector<PrimResult> out;

    obs::set_metrics_enabled(true);
    out.push_back({"counter_add", time_ns(kIters, kRounds, [&](int) { counter.add(); })});
    out.push_back({"histogram_record", time_ns(kIters, kRounds, [&](int i) {
                       hist.record(static_cast<std::uint64_t>(i) * 37 % 100'000);
                   })});
    obs::set_metrics_enabled(false);
    out.push_back(
        {"counter_add_disabled", time_ns(kIters, kRounds, [&](int) { counter.add(); })});
    out.push_back({"histogram_record_disabled", time_ns(kIters, kRounds, [&](int i) {
                       hist.record(static_cast<std::uint64_t>(i));
                   })});
    // Tracer is off: the span must collapse to a branch on the enabled flag.
    out.push_back({"span_disabled", time_ns(kIters, kRounds, [&](int) {
                       obs::Span span("bench", "noop");
                   })});
    obs::set_metrics_enabled(true);
    g_sink = g_sink + counter.value() + hist.snapshot().count;
    return out;
}

} // namespace

int main(int argc, char** argv) {
    const char* out_path = argc > 1 ? argv[1] : "BENCH_p9_obs.json";

    DispatchResult dispatch = bench_dispatch();
    std::vector<PrimResult> prims = bench_primitives();

    std::printf("%-28s %10s\n", "dispatch (info)", "ns/req");
    std::printf("%-28s %10.1f\n", "metrics off", dispatch.off_ns);
    std::printf("%-28s %10.1f  (+%.2f%%)\n", "metrics on", dispatch.metrics_ns,
                dispatch.metrics_pct());
    std::printf("%-28s %10.1f  (+%.2f%%)\n", "metrics + tracer", dispatch.traced_ns,
                dispatch.traced_pct());
    std::printf("\n%-28s %10s\n", "primitive", "ns/op");
    for (const auto& p : prims) std::printf("%-28s %10.2f\n", p.name.c_str(), p.ns);

    gmdf::benchjson::Writer w;
    w.begin_object();
    w.kv("bench", "p9_obs");
    w.key("dispatch");
    w.begin_object(/*compact=*/true);
    w.kv("off_ns", dispatch.off_ns, 1);
    w.kv("metrics_ns", dispatch.metrics_ns, 1);
    w.kv("traced_ns", dispatch.traced_ns, 1);
    w.kv("metrics_overhead_pct", dispatch.metrics_pct(), 2);
    w.kv("traced_overhead_pct", dispatch.traced_pct(), 2);
    w.end_object();
    w.key("primitives");
    w.begin_array();
    for (const auto& p : prims) {
        w.begin_object(/*compact=*/true);
        w.kv("name", p.name);
        w.kv("ns", p.ns, 2);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write_file(out_path)) return 1;
    std::printf("\nwrote %s\n", out_path);

    // CI gate: full metrics instrumentation must stay under 5% on dispatch.
    if (dispatch.metrics_pct() >= 5.0) {
        std::fprintf(stderr, "FAIL: metrics overhead %.2f%% >= 5%%\n",
                     dispatch.metrics_pct());
        return 1;
    }
    return 0;
}
