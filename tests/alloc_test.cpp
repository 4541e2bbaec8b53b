// Steady-state allocation guard for the simulated target. This suite is
// its own binary because it replaces the global operator new with a
// counter: after a warm-up, a target whose debug bytes go to a no-op
// sink runs ten simulated seconds without a single heap allocation (the
// event heap, the pending-op table and the job buffers all reuse their
// storage).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

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

TEST(Counter, SeesAnAllocation) {
    g_allocations = 0;
    g_counting = true;
    auto* p = new std::string(64, 'x');
    g_counting = false;
    delete p;
    EXPECT_GE(g_allocations.load(), 1);
}

} // namespace
