// C3 — paper §III claim: "model-level animation might occur in
// milliseconds. Therefore, GDM animation will trace model-level behavior
// and always make a record of the execution trace. The user can then
// monitor the application's behavior via a replay function associated
// with a timing diagram."
// Measures: trace recording overhead, replay throughput (events/s, i.e.
// how much faster than real time a trace can be re-animated), and timing
// diagram / VCD generation time.
#include <benchmark/benchmark.h>

#include "comdes/build.hpp"
#include "core/abstraction.hpp"
#include "core/animator.hpp"
#include "core/engine.hpp"
#include "core/trace.hpp"

using namespace gmdf;

namespace {

struct Fixture {
    comdes::SystemBuilder sys{"c3"};
    meta::ObjectId sm_id, s0, s1, t01, t10, sig;

    Fixture() {
        sig = sys.add_signal("speed");
        auto a = sys.add_actor("a", 10'000);
        auto sm = a.add_sm("m", {"go"}, {"y"});
        s0 = sm.add_state("s0");
        s1 = sm.add_state("s1");
        t01 = sm.add_transition(s0, s1, "go");
        t10 = sm.add_transition(s1, s0, "", "!go");
        sm_id = sm.sm_id();
        a.bind_output(sm.sm_id(), "y", sig);
    }

    // A realistic trace: alternating transitions + signal updates, 1 ms apart.
    core::TraceRecorder make_trace(std::size_t n_events) const {
        core::TraceRecorder trace;
        rt::SimTime t = 0;
        for (std::size_t i = 0; i < n_events; i += 3) {
            bool to_one = (i / 3) % 2 == 0;
            trace.record({link::Cmd::Transition, static_cast<std::uint32_t>(sm_id.raw),
                          static_cast<std::uint32_t>((to_one ? t01 : t10).raw), 0.0f},
                         t += rt::kMs);
            trace.record({link::Cmd::StateEnter, static_cast<std::uint32_t>(sm_id.raw),
                          static_cast<std::uint32_t>((to_one ? s1 : s0).raw), 0.0f},
                         t);
            trace.record({link::Cmd::SignalUpdate, static_cast<std::uint32_t>(sig.raw), 0,
                          static_cast<float>(i)},
                         t);
        }
        return trace;
    }
};

void BM_TraceRecord(benchmark::State& state) {
    core::TraceRecorder trace;
    link::Command cmd{link::Cmd::StateEnter, 1, 2, 0.0f};
    rt::SimTime t = 0;
    for (auto _ : state) {
        trace.record(cmd, t += rt::kMs);
        if (trace.size() > 1'000'000) {
            state.PauseTiming();
            trace = core::TraceRecorder{};
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecord);

void BM_ReplayThroughput(benchmark::State& state) {
    Fixture f;
    auto trace = f.make_trace(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        // The same shared re-animation path the `replay` verb and the
        // time-travel scene rebuild use.
        auto abs = core::abstract_model(f.sys.model(), core::comdes_default_mapping());
        core::SceneAnimator animator(f.sys.model(), abs.scene);
        core::animate_trace(f.sys.model(), core::CommandBindingTable::defaults(),
                            trace.events(), animator);
        benchmark::DoNotOptimize(animator.frames());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    // Each event is 1/3 ms of original execution: speedup vs real time =
    // (events/s) / 3000.
    state.counters["trace_events"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ReplayThroughput)->Arg(300)->Arg(3'000)->Arg(30'000);

void BM_TimingDiagram(benchmark::State& state) {
    Fixture f;
    auto trace = f.make_trace(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto diagram = trace.timing_diagram(f.sys.model());
        std::string art = diagram.render_ascii(80);
        benchmark::DoNotOptimize(art.data());
    }
}
BENCHMARK(BM_TimingDiagram)->Arg(3'000);

void BM_VcdExport(benchmark::State& state) {
    Fixture f;
    auto trace = f.make_trace(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        std::string vcd = trace.to_vcd(f.sys.model());
        benchmark::DoNotOptimize(vcd.data());
    }
}
BENCHMARK(BM_VcdExport)->Arg(3'000);

} // namespace

BENCHMARK_MAIN();
