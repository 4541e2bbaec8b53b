// Steady-state allocation guards for the simulated target and the
// debugger engine. This suite is its own binary because it replaces the
// global operator new with a counter: after a warm-up, a target whose
// debug bytes go to a no-op sink runs ten simulated seconds without a
// single heap allocation (the event heap, the pending-op table and the
// job buffers all reuse their storage), and an engine checking a
// consistent state/transition stream allocates nothing per command.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "comdes/metamodel.hpp"
#include "core/engine.hpp"
#include "proto/scenarios.hpp"
#include "rt/target.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n) {
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}

} // namespace

// The replacements pair malloc with free; GCC cannot see that every
// operator new in the program is this malloc once it inlines a delete.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rt = gmdf::rt;

namespace {

/// Heap allocations made while `scenario` runs `span` after a `warmup`,
/// its debug bytes going to a sink that drops them.
long steady_allocations(const std::string& scenario, rt::SimTime warmup, rt::SimTime span) {
    auto s = gmdf::proto::make_scenario(scenario);
    if (s == nullptr) return -1;
    s->target.set_debug_sink([](int, std::span<const std::uint8_t>, rt::SimTime) {});
    s->target.run_for(warmup);
    g_allocations = 0;
    g_counting = true;
    s->target.run_for(span);
    g_counting = false;
    return g_allocations.load();
}

class SteadyState : public ::testing::TestWithParam<const char*> {};

TEST_P(SteadyState, TenSimulatedSecondsAllocateNothing) {
    EXPECT_EQ(steady_allocations(GetParam(), 1 * rt::kSec, 10 * rt::kSec), 0);
}

// Models that emit less than the UART carries; one that outruns the wire
// grows its op table with its backlog, so it is left out.
INSTANTIATE_TEST_SUITE_P(Scenarios, SteadyState,
                         ::testing::Values("blinker", "turntable", "lift_fault"));

// A bare engine (no observers) over the blinker design, fed the
// blinker's own cycle: STATE_ENTER of the initial state, then for each
// transition in turn its TRANSITION and the STATE_ENTER of its target.
TEST(Engine, ConsistentCycleAllocatesNothing) {
    namespace link = gmdf::link;
    using gmdf::meta::MObject;
    auto s = gmdf::proto::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    const auto& design = s->sys.model();
    const auto& c = gmdf::comdes::comdes_metamodel();
    auto machines = design.all_of(*c.sm_fb);
    ASSERT_EQ(machines.size(), 1u);
    const MObject& sm = *machines.front();
    auto sm_id = static_cast<std::uint32_t>(sm.id().raw);

    std::vector<link::Command> cycle;
    std::uint64_t state = sm.ref("initial").raw;
    for (gmdf::meta::ObjectId t_id : sm.refs("transitions")) {
        const MObject& tr = design.at(t_id);
        ASSERT_EQ(tr.ref("from").raw, state) << "the blinker's transitions chain in order";
        cycle.push_back({link::Cmd::Transition, sm_id, static_cast<std::uint32_t>(t_id.raw)});
        state = tr.ref("to").raw;
        cycle.push_back({link::Cmd::StateEnter, sm_id, static_cast<std::uint32_t>(state)});
    }
    ASSERT_EQ(state, sm.ref("initial").raw) << "the blinker cycles back to its initial state";
    ASSERT_GE(cycle.size(), 4u);

    gmdf::core::DebuggerEngine engine(design);
    rt::SimTime t = 0;
    engine.ingest({link::Cmd::StateEnter, sm_id, static_cast<std::uint32_t>(state)}, t);
    for (const link::Command& cmd : cycle) engine.ingest(cmd, ++t); // warm-up lap
    g_allocations = 0;
    g_counting = true;
    for (int lap = 0; lap < 100; ++lap)
        for (const link::Command& cmd : cycle) engine.ingest(cmd, ++t);
    g_counting = false;
    EXPECT_EQ(g_allocations.load(), 0);
    EXPECT_EQ(engine.stats().divergences, 0u);
}

TEST(Counter, SeesAnAllocation) {
    g_allocations = 0;
    g_counting = true;
    auto* p = new std::string(64, 'x');
    g_counting = false;
    delete p;
    EXPECT_GE(g_allocations.load(), 1);
}

} // namespace
