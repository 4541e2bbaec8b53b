// P9 — cost of the observability layer (src/obs/).
//
// The contract the instrumentation rides on: with metrics enabled the
// dispatch path stays within 5% of the metrics-off baseline, and with
// everything off a probe (obs::Span) reads no clock: it costs two
// relaxed loads. This bench prices each piece:
//
//   dispatch        full Controller::execute("info") with (a) metrics off,
//                   (b) metrics on (the dispatch Span reads the clock
//                   twice and samples the verb's latency histogram),
//                   (c) metrics + tracer on (the same clock pair also
//                   records a trace event), plus the derived overhead
//                   percentages; CI gates on (b), (c) is information only
//   primitives      Histogram::record ns/op, enabled and disabled, and
//                   an idle Span construct/destruct
//
// Each phase runs the shared timer's rounds back to back; the report
// carries each phase's median, min and max per call, and the gate
// compares the best rounds (the mins).
//
// Output: human-readable summary on stdout and a machine-readable JSON
// report (default BENCH_p9_obs.json, or argv[1]) for CI trend tracking.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/scenarios.hpp"

using namespace gmdf;
using benchjson::g_sink;
using benchjson::Spread;
using benchjson::time_ns;

namespace {

struct DispatchResult {
    Spread off_ns;     ///< metrics disabled
    Spread metrics_ns; ///< metrics enabled (per-verb latency histogram)
    Spread traced_ns;  ///< metrics + tracer enabled (trace event too)
    [[nodiscard]] double metrics_pct() const {
        return (metrics_ns.min - off_ns.min) / off_ns.min * 100.0;
    }
    [[nodiscard]] double traced_pct() const {
        return (traced_ns.min - off_ns.min) / off_ns.min * 100.0;
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

    DispatchResult r;
    obs::set_metrics_enabled(false);
    r.off_ns = time_ns(kIters, drive);
    obs::set_metrics_enabled(true);
    r.metrics_ns = time_ns(kIters, drive);
    obs::tracer().set_capacity(1 << 16);
    obs::tracer().start();
    r.traced_ns = time_ns(kIters, drive);
    obs::tracer().stop();
    return r;
}

struct PrimResult {
    std::string name;
    Spread ns;
};

std::vector<PrimResult> bench_primitives() {
    constexpr int kIters = 2'000'000;
    obs::Histogram hist;
    std::vector<PrimResult> out;

    obs::set_metrics_enabled(true);
    out.push_back({"histogram_record", time_ns(kIters, [&](int i) {
                       hist.record(static_cast<std::uint64_t>(i) * 37 % 100'000);
                   })});
    obs::set_metrics_enabled(false);
    out.push_back({"histogram_record_disabled", time_ns(kIters, [&](int i) {
                       hist.record(static_cast<std::uint64_t>(i));
                   })});
    // Tracer is off: the span must collapse to a branch on the enabled flag.
    out.push_back({"span_disabled", time_ns(kIters, [&](int) {
                       obs::Span span("bench", "noop");
                   })});
    obs::set_metrics_enabled(true);
    g_sink = g_sink + hist.snapshot().count;
    return out;
}

} // namespace

int main(int argc, char** argv) {
    const char* out_path = argc > 1 ? argv[1] : "BENCH_p9_obs.json";

    DispatchResult dispatch = bench_dispatch();
    std::vector<PrimResult> prims = bench_primitives();

    std::printf("%-28s %10s %10s\n", "dispatch (info)", "best ns", "median ns");
    std::printf("%-28s %10.1f %10.1f\n", "metrics off", dispatch.off_ns.min,
                dispatch.off_ns.median);
    std::printf("%-28s %10.1f %10.1f  (%+.2f%%)\n", "metrics on", dispatch.metrics_ns.min,
                dispatch.metrics_ns.median, dispatch.metrics_pct());
    std::printf("%-28s %10.1f %10.1f  (%+.2f%%, not gated)\n", "metrics + tracer",
                dispatch.traced_ns.min, dispatch.traced_ns.median, dispatch.traced_pct());
    std::printf("\n%-28s %10s\n", "primitive", "median ns");
    for (const auto& p : prims)
        std::printf("%-28s %10.2f\n", p.name.c_str(), p.ns.median);

    benchjson::Writer w;
    benchjson::begin_report(w, "p9_obs");
    w.key("dispatch");
    w.begin_object();
    w.spread("off_ns", dispatch.off_ns, 1);
    w.spread("metrics_ns", dispatch.metrics_ns, 1);
    w.spread("traced_ns", dispatch.traced_ns, 1);
    w.kv("metrics_overhead_pct", dispatch.metrics_pct(), 2);
    w.kv("traced_overhead_pct", dispatch.traced_pct(), 2);
    w.end_object();
    w.key("primitives");
    w.begin_array();
    for (const auto& p : prims) {
        w.begin_object(/*compact=*/true);
        w.kv("name", p.name);
        w.spread("ns", p.ns, 2);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write_file(out_path)) return 1;
    std::printf("\nwrote %s\n", out_path);

    // CI gate: full metrics instrumentation must stay under 5% on dispatch,
    // best round against best round.
    if (dispatch.metrics_pct() >= 5.0) {
        std::fprintf(stderr, "FAIL: metrics overhead %.2f%% >= 5%%\n",
                     dispatch.metrics_pct());
        return 1;
    }
    return 0;
}
