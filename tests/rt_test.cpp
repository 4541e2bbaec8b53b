// Unit tests for the simulated target: event kernel (with a differential
// check against a reference sort), snapshot codec, memory map, signal
// store, and the timed-multitasking node scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "rt/des.hpp"
#include "rt/memory.hpp"
#include "rt/state.hpp"
#include "rt/target.hpp"

namespace rt = gmdf::rt;

namespace {

TEST(Simulator, DispatchesInTimeOrder) {
    rt::Simulator sim;
    std::vector<int> order;
    sim.at(30, [&] { order.push_back(3); });
    sim.at(10, [&] { order.push_back(1); });
    sim.at(20, [&] { order.push_back(2); });
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, FifoAtEqualTimes) {
    rt::Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) sim.at(7, [&order, i] { order.push_back(i); });
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilAdvancesToHorizon) {
    rt::Simulator sim;
    int fired = 0;
    sim.at(5, [&] { ++fired; });
    sim.at(15, [&] { ++fired; });
    sim.run_until(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 10);
    EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, SchedulingInPastThrows) {
    rt::Simulator sim;
    sim.at(10, [] {});
    sim.run_until(10);
    EXPECT_THROW(sim.at(5, [] {}), std::invalid_argument);
}

TEST(Simulator, EventsCanScheduleEvents) {
    rt::Simulator sim;
    std::vector<rt::SimTime> fires;
    sim.at(1, [&] {
        fires.push_back(sim.now());
        sim.after(4, [&] { fires.push_back(sim.now()); });
    });
    sim.run_all();
    EXPECT_EQ(fires, (std::vector<rt::SimTime>{1, 5}));
}

TEST(Simulator, EveryRepeats) {
    rt::Simulator sim;
    int count = 0;
    sim.every(10, 10, [&] { ++count; });
    sim.run_until(55);
    EXPECT_EQ(count, 5); // t = 10,20,30,40,50
}

TEST(Simulator, EveryRejectsBadPeriod) {
    rt::Simulator sim;
    EXPECT_THROW(sim.every(0, 0, [] {}), std::invalid_argument);
}

// ---- differential: the kernel against a reference (t, seq) sort ------------

/// The follow-ups each dispatch schedules, drawn from one seeded stream
/// with the modulo pick (the same draws under every standard library).
/// A follow-up is (delay, period): period 0 is a one-shot, and delay 0
/// lands at the handler's own instant.
struct EventScript {
    std::mt19937 rng{20261019};
    int periodic = 0;        ///< periodic events ever scheduled (capped)
    int pending_one_shot = 0;

    std::vector<std::pair<rt::SimTime, rt::SimTime>> initial() {
        std::vector<std::pair<rt::SimTime, rt::SimTime>> out;
        for (int i = 0; i < 64; ++i) out.emplace_back(rng() % 200, 0);
        pending_one_shot += 64;
        return out;
    }
    std::vector<std::pair<rt::SimTime, rt::SimTime>> follow_ups() {
        std::vector<std::pair<rt::SimTime, rt::SimTime>> out;
        const int n = static_cast<int>(rng() % 3);
        for (int i = 0; i < n; ++i) {
            if (periodic < 12 && rng() % 16 == 0) {
                ++periodic;
                const rt::SimTime delay = rng() % 40;
                out.emplace_back(delay, 1 + rng() % 60);
            } else if (pending_one_shot < 256) {
                ++pending_one_shot;
                out.emplace_back(rng() % 4 == 0 ? 0 : rng() % 100, 0);
            }
        }
        return out;
    }
};

/// Runs the script on some kernel and logs each dispatch as (t, event).
struct ScriptRun {
    EventScript script;
    std::vector<std::pair<rt::SimTime, int>> log;
    int next_event = 0;

    virtual ~ScriptRun() = default;
    virtual rt::SimTime now() const = 0;
    virtual void schedule(int event, rt::SimTime t, rt::SimTime period) = 0;

    void add(const std::vector<std::pair<rt::SimTime, rt::SimTime>>& events) {
        for (auto [delay, period] : events) schedule(next_event++, now() + delay, period);
    }
    void fire(int event, bool one_shot) {
        log.emplace_back(now(), event);
        if (one_shot) --script.pending_one_shot;
        add(script.follow_ups());
    }
};

/// The reference: a sorted set of (t, seq, event) with the kernel's
/// sequence rules (one per schedule, one per re-arm after the handler).
struct ReferenceRun final : ScriptRun {
    std::set<std::tuple<rt::SimTime, std::uint64_t, int>> queue;
    std::map<int, rt::SimTime> periods;
    std::uint64_t seq = 0;
    rt::SimTime clock = 0;

    rt::SimTime now() const override { return clock; }
    void schedule(int event, rt::SimTime t, rt::SimTime period) override {
        queue.emplace(t, seq++, event);
        if (period > 0) periods[event] = period;
    }
    void step() {
        auto [t, s, event] = *queue.begin();
        queue.erase(queue.begin());
        clock = t;
        auto it = periods.find(event);
        fire(event, it == periods.end());
        if (it != periods.end()) queue.emplace(t + it->second, seq++, event);
    }
};

/// The real kernel. Like rt::Target, it owns its one-shots as data
/// (time, seq) so a restore can re-create them.
struct KernelRun final : ScriptRun {
    rt::Simulator sim;
    std::map<int, std::pair<rt::SimTime, std::uint64_t>> one_shots;

    rt::SimTime now() const override { return sim.now(); }
    void schedule(int event, rt::SimTime t, rt::SimTime period) override {
        if (period > 0) {
            sim.every(t, period, [this, event] { fire(event, false); });
            return;
        }
        one_shots[event] = {t, sim.at(t, [this, event] { fire_one_shot(event); }).seq};
    }
    void fire_one_shot(int event) {
        one_shots.erase(event);
        fire(event, true);
    }
    std::vector<std::uint8_t> capture() const {
        rt::StateWriter w;
        sim.save_state(w);
        w.size(one_shots.size());
        for (const auto& [event, key] : one_shots) {
            w.i32(event);
            w.i64(key.first);
            w.u64(key.second);
        }
        return w.take();
    }
    void restore(const std::vector<std::uint8_t>& image) {
        rt::StateReader r(image);
        sim.load_state(r);
        one_shots.clear();
        std::size_t n = r.size();
        for (std::size_t i = 0; i < n; ++i) {
            int event = r.i32();
            rt::SimTime t = r.i64();
            std::uint64_t seq = r.u64();
            one_shots[event] = {t, seq};
            sim.schedule_restored(t, seq, [this, event] { fire_one_shot(event); });
        }
    }
};

// About 10k dispatches of one-shot and periodic events, many scheduled at
// the handler's own instant, so freed slots are reused throughout. The
// kernel must dispatch in exactly the reference's (t, seq) order, also
// after a save/load round trip mid-run, whose re-capture is
// byte-identical.
TEST(Simulator, MatchesAReferenceSortThroughSlotReuseAndRestore) {
    constexpr int kDispatches = 10'000;
    ReferenceRun ref;
    ref.add(ref.script.initial());
    for (int i = 0; i < kDispatches; ++i) {
        ASSERT_FALSE(ref.queue.empty());
        ref.step();
    }

    KernelRun run;
    run.add(run.script.initial());
    for (int i = 0; i < kDispatches; ++i) {
        if (i == kDispatches / 2) {
            ASSERT_EQ(run.sim.pending_one_shot(), run.one_shots.size());
            std::vector<std::uint8_t> image = run.capture();
            run.restore(image);
            EXPECT_EQ(run.capture(), image) << "restore + re-capture must be byte-identical";
        }
        ASSERT_TRUE(run.sim.step());
    }
    EXPECT_EQ(run.log, ref.log);
    EXPECT_EQ(run.sim.pending(), ref.queue.size());
    EXPECT_EQ(run.script.periodic, 12);
    const auto at_own_instant = std::adjacent_find(
        ref.log.begin(), ref.log.end(),
        [](const auto& a, const auto& b) { return a.first == b.first; });
    EXPECT_NE(at_own_instant, ref.log.end());
}

// The image format is fixed-width little-endian whatever the codec does
// internally: pin the bytes of each field kind, and the exact-size image.
TEST(StateCodec, FieldsAreFixedWidthLittleEndian) {
    rt::StateWriter w;
    w.u8(0x01);
    w.u16(0x0203);
    w.i32(-2);
    w.f32(1.5f);
    w.str("ab");
    w.doubles(std::vector<double>{-0.25});
    const std::vector<std::uint8_t> image = w.take();
    const std::vector<std::uint8_t> expected = {
        0x01,                               // u8
        0x03, 0x02,                         // u16
        0xfe, 0xff, 0xff, 0xff,             // i32 -2
        0x00, 0x00, 0xc0, 0x3f,             // f32 1.5
        2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b',   // str: u64 length, then the bytes
        1, 0, 0, 0, 0, 0, 0, 0,             // doubles: u64 count
        0, 0, 0, 0, 0, 0, 0xd0, 0xbf,       // -0.25
    };
    EXPECT_EQ(image, expected);
    EXPECT_EQ(image.capacity(), image.size());

    rt::StateReader r(image);
    EXPECT_EQ(r.u8(), 0x01);
    EXPECT_EQ(r.u16(), 0x0203);
    EXPECT_EQ(r.i32(), -2);
    EXPECT_EQ(r.f32(), 1.5f);
    EXPECT_EQ(r.str(), "ab");
    std::vector<double> d;
    r.doubles(d);
    EXPECT_EQ(d, std::vector<double>{-0.25});
    EXPECT_TRUE(r.at_end());
    EXPECT_THROW(r.u8(), std::runtime_error);
}

TEST(MemoryMap, AllocReadWrite) {
    rt::MemoryMap mem;
    auto a = mem.alloc("x");
    auto b = mem.alloc("y");
    EXPECT_EQ(a, rt::MemoryMap::kBase);
    EXPECT_EQ(b, rt::MemoryMap::kBase + 4);
    mem.write_u32(a, 0xDEADBEEF);
    EXPECT_EQ(mem.read_u32(a), 0xDEADBEEFu);
    EXPECT_EQ(mem.read_u32(b), 0u);
    EXPECT_EQ(mem.address_of("y"), b);
    EXPECT_TRUE(mem.has_symbol("x"));
    EXPECT_FALSE(mem.has_symbol("z"));
}

TEST(MemoryMap, FloatRoundTrip) {
    rt::MemoryMap mem;
    auto a = mem.alloc("f");
    mem.write_f32(a, 3.25f);
    EXPECT_FLOAT_EQ(mem.read_f32(a), 3.25f);
}

TEST(MemoryMap, Errors) {
    rt::MemoryMap mem;
    auto a = mem.alloc("x");
    EXPECT_THROW(mem.alloc("x"), std::invalid_argument);
    EXPECT_THROW((void)mem.address_of("nope"), std::out_of_range);
    EXPECT_THROW((void)mem.read_u32(a + 4), std::out_of_range);    // beyond allocation
    EXPECT_THROW((void)mem.read_u32(a + 2), std::out_of_range);    // unaligned
    EXPECT_THROW((void)mem.read_u32(rt::MemoryMap::kBase - 4), std::out_of_range);
}

TEST(SignalStore, AddAndLookup) {
    rt::SignalStore store;
    int a = store.add("speed", 1.5);
    int b = store.add("dir");
    EXPECT_EQ(store.index_of("speed"), a);
    EXPECT_EQ(store.index_of("dir"), b);
    EXPECT_EQ(store.index_of("nope"), -1);
    EXPECT_DOUBLE_EQ(store.init(a), 1.5);
    EXPECT_THROW(store.add("speed"), std::invalid_argument);
}

// Task body that copies input to output with a fixed cycle cost, counting
// executions and optionally emitting debug bytes.
class EchoBody final : public rt::TaskBody {
public:
    explicit EchoBody(std::uint64_t cycles, std::size_t debug_bytes = 0)
        : cycles_(cycles), debug_bytes_(debug_bytes) {}

    int runs = 0;
    std::vector<double> seen_inputs;

    std::uint64_t execute(rt::TaskContext& ctx) override {
        ++runs;
        if (!ctx.inputs().empty()) {
            seen_inputs.push_back(ctx.inputs()[0]);
            if (!ctx.outputs().empty()) ctx.outputs()[0] = ctx.inputs()[0] * 2.0;
        }
        if (debug_bytes_ > 0) {
            std::vector<std::uint8_t> frame(debug_bytes_, 0xAB);
            ctx.send_debug(frame);
        }
        return cycles_;
    }

private:
    std::uint64_t cycles_;
    std::size_t debug_bytes_;
};

struct TargetFixture {
    rt::Target target;
    rt::Node* node;
    int sig_in, sig_out;

    explicit TargetFixture(rt::OutputMode mode = rt::OutputMode::LatchAtDeadline)
        : target(mode) {
        sig_in = target.signals().add("in", 5.0);
        sig_out = target.signals().add("out", 0.0);
        node = &target.add_node(48e6);
    }

    EchoBody* add_echo(const std::string& name, rt::SimTime period, rt::SimTime deadline,
                       std::uint64_t cycles, int priority = 0) {
        auto body = std::make_unique<EchoBody>(cycles);
        EchoBody* raw = body.get();
        rt::TaskConfig cfg;
        cfg.name = name;
        cfg.period = period;
        cfg.deadline = deadline;
        cfg.priority = priority;
        cfg.input_signals = {sig_in};
        cfg.output_signals = {sig_out};
        node->add_task(std::move(cfg), std::move(body));
        return raw;
    }
};

TEST(Node, PeriodicExecution) {
    TargetFixture f;
    auto* body = f.add_echo("t", 10 * rt::kMs, 0, 1000);
    f.target.start();
    f.target.run_for(105 * rt::kMs);
    EXPECT_EQ(body->runs, 10);
    EXPECT_EQ(f.node->task_stats("t").releases, 10u);
    EXPECT_EQ(f.node->task_stats("t").completions, 10u);
}

TEST(Node, OutputLatchedExactlyAtDeadline) {
    TargetFixture f;
    f.add_echo("t", 10 * rt::kMs, 4 * rt::kMs, 1000);
    f.target.start();
    f.target.run_for(50 * rt::kMs);
    const auto& offsets = f.node->task_stats("t").output_offsets;
    ASSERT_GT(offsets.count, 0u);
    EXPECT_EQ(offsets.min, 4 * rt::kMs); // zero jitter
    EXPECT_EQ(offsets.max, 4 * rt::kMs);
    EXPECT_EQ(offsets.sum, static_cast<rt::SimTime>(offsets.count) * 4 * rt::kMs);
    EXPECT_DOUBLE_EQ(f.node->signal(f.sig_out), 10.0);    // 5.0 * 2
}

TEST(Node, ImmediateModeLatchesAtCompletion) {
    TargetFixture f(rt::OutputMode::Immediate);
    f.add_echo("t", 10 * rt::kMs, 0, 48'000); // 1ms at 48MHz
    f.target.start();
    f.target.run_for(50 * rt::kMs);
    const auto& offsets = f.node->task_stats("t").output_offsets;
    ASSERT_GT(offsets.count, 0u);
    EXPECT_GE(offsets.min, 1 * rt::kMs);
    EXPECT_LT(offsets.max, 2 * rt::kMs); // completion, far before the 10ms deadline
}

TEST(Node, InputLatchedAtRelease) {
    TargetFixture f;
    auto* body = f.add_echo("t", 10 * rt::kMs, 0, 1000);
    f.target.start();
    // Change the input signal between releases; the latch must pick up
    // the value as of each release instant.
    f.target.sim().at(15 * rt::kMs, [&] { f.node->publish_signal(f.sig_in, 7.0); });
    f.target.run_for(35 * rt::kMs);
    ASSERT_EQ(body->seen_inputs.size(), 3u); // releases at 10, 20, 30 ms
    EXPECT_DOUBLE_EQ(body->seen_inputs[0], 5.0);
    EXPECT_DOUBLE_EQ(body->seen_inputs[1], 7.0);
    EXPECT_DOUBLE_EQ(body->seen_inputs[2], 7.0);
}

TEST(Node, DeadlineMissRecorded) {
    TargetFixture f;
    // 3ms of work against a 2ms deadline.
    f.add_echo("t", 10 * rt::kMs, 2 * rt::kMs, 144'000);
    f.target.start();
    f.target.run_for(45 * rt::kMs);
    EXPECT_GE(f.node->task_stats("t").deadline_misses, 4u);
}

TEST(Node, OverrunSkipsRelease) {
    TargetFixture f;
    // 15ms of work against a 10ms period: every other release overruns.
    f.add_echo("t", 10 * rt::kMs, 10 * rt::kMs, 720'000);
    f.target.start();
    f.target.run_for(100 * rt::kMs);
    EXPECT_GE(f.node->task_stats("t").overruns, 3u);
}

TEST(Node, PriorityOrdersReadyJobs) {
    TargetFixture f;
    // Both release at t=10ms; the high-priority (lower value) task runs first.
    auto* lo = f.add_echo("lo", 10 * rt::kMs, 0, 48'000, 5);
    auto* hi = f.add_echo("hi", 10 * rt::kMs, 0, 48'000, 1);
    std::vector<std::string> started;
    f.target.start();
    f.target.run_for(11 * rt::kMs);
    // Both executed once; verify response times: hi completed at +1ms,
    // lo waited for hi (response ~2ms).
    EXPECT_EQ(hi->runs, 1);
    EXPECT_EQ(lo->runs, 1);
    EXPECT_LT(f.node->task_stats("hi").worst_response,
              f.node->task_stats("lo").worst_response);
}

TEST(Node, CpuUtilizationAccounted) {
    TargetFixture f;
    f.add_echo("t", 10 * rt::kMs, 0, 48'000); // 1ms per 10ms = 10%
    f.target.start();
    f.target.run_for(100 * rt::kMs);
    EXPECT_NEAR(f.node->cpu_utilization(100 * rt::kMs), 0.10, 0.02);
}

TEST(Node, DebugBytesCostCyclesAndArriveAfterWireDelay) {
    TargetFixture f;
    auto body = std::make_unique<EchoBody>(1000, 20); // 20 debug bytes per scan
    rt::TaskConfig cfg;
    cfg.name = "t";
    cfg.period = 10 * rt::kMs;
    f.node->add_task(std::move(cfg), std::move(body));

    std::vector<rt::SimTime> deliveries;
    f.target.set_debug_sink([&](int node_id, std::span<const std::uint8_t> bytes,
                                rt::SimTime at) {
        EXPECT_EQ(node_id, 0);
        EXPECT_EQ(bytes.size(), 20u);
        deliveries.push_back(at);
    });
    f.target.start();
    f.target.run_for(25 * rt::kMs);

    ASSERT_EQ(deliveries.size(), 2u);
    // 20 bytes * 10 bits / 115200 baud ~= 1.736 ms after completion.
    EXPECT_GT(deliveries[0], 10 * rt::kMs + 1700 * rt::kUs);
    // Instrumentation cycles: frame (60) + 20 * 100 per scan.
    EXPECT_EQ(f.node->instr_cycles(), 2u * (60 + 20 * 100));
    EXPECT_EQ(f.node->app_cycles(), 2u * 1000);
}

TEST(Node, SignalMemoryMirror) {
    TargetFixture f;
    auto addr = f.node->memory().alloc("sig_out");
    f.node->map_signal_memory(f.sig_out, addr);
    f.add_echo("t", 10 * rt::kMs, 0, 1000);
    f.target.start();
    f.target.run_for(25 * rt::kMs);
    EXPECT_FLOAT_EQ(f.node->memory().read_f32(addr), 10.0f);
}

TEST(Target, PauseSuppressesReleases) {
    TargetFixture f;
    auto* body = f.add_echo("t", 10 * rt::kMs, 0, 1000);
    f.target.start();
    f.target.run_for(25 * rt::kMs);
    EXPECT_EQ(body->runs, 2);
    f.target.pause();
    f.target.run_for(30 * rt::kMs);
    EXPECT_EQ(body->runs, 2);
    EXPECT_GE(f.node->task_stats("t").suppressed, 2u);
    f.target.resume();
    f.target.run_for(30 * rt::kMs);
    EXPECT_GE(body->runs, 4);
}

TEST(Target, SingleStepExecutesOneRelease) {
    TargetFixture f;
    auto* body = f.add_echo("t", 10 * rt::kMs, 0, 1000);
    f.target.start();
    f.target.pause();
    f.target.run_for(25 * rt::kMs);
    EXPECT_EQ(body->runs, 0);
    f.target.request_single_step();
    f.target.run_for(20 * rt::kMs);
    EXPECT_EQ(body->runs, 1); // exactly one release went through
}

TEST(Target, NetworkPropagatesSignalsWithLatency) {
    rt::Target target;
    int sig = target.signals().add("x", 0.0);
    auto& n0 = target.add_node();
    auto& n1 = target.add_node();
    target.set_network_latency(500 * rt::kUs);
    target.start();
    target.sim().at(10 * rt::kMs, [&] { n0.publish_signal(sig, 42.0); });
    target.run_for(10 * rt::kMs + 400 * rt::kUs);
    EXPECT_DOUBLE_EQ(n0.signal(sig), 42.0); // local write immediate
    EXPECT_DOUBLE_EQ(n1.signal(sig), 0.0);  // still in flight
    target.run_for(200 * rt::kUs);
    EXPECT_DOUBLE_EQ(n1.signal(sig), 42.0); // delivered after latency
}

TEST(Target, StartTwiceThrows) {
    rt::Target target;
    target.add_node();
    target.start();
    EXPECT_THROW(target.start(), std::logic_error);
    EXPECT_THROW(target.add_node(), std::logic_error);
}

// Jitter property: under deadline latching, output jitter is exactly zero
// regardless of a competing load task; in immediate mode it is not.
class JitterSweep : public ::testing::TestWithParam<bool> {};

TEST_P(JitterSweep, LatchedImpliesZeroJitter) {
    bool latched = GetParam();
    TargetFixture f(latched ? rt::OutputMode::LatchAtDeadline : rt::OutputMode::Immediate);
    f.add_echo("main", 10 * rt::kMs, 8 * rt::kMs, 48'000, 2);
    // Interfering higher-priority task with alternating cost via two tasks
    // at different phases.
    auto noisy = std::make_unique<EchoBody>(96'000);
    rt::TaskConfig cfg;
    cfg.name = "noise";
    cfg.period = 7 * rt::kMs;
    cfg.priority = 1;
    f.node->add_task(std::move(cfg), std::move(noisy));
    f.target.start();
    f.target.run_for(500 * rt::kMs);

    const auto& offsets = f.node->task_stats("main").output_offsets;
    ASSERT_GT(offsets.count, 10u);
    rt::SimTime lo = offsets.min, hi = offsets.max;
    if (latched) {
        EXPECT_EQ(lo, hi) << "deadline latching must remove all jitter";
        EXPECT_EQ(lo, 8 * rt::kMs);
    } else {
        EXPECT_GT(hi - lo, 0) << "immediate outputs must show scheduling jitter";
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, JitterSweep, ::testing::Values(true, false));

} // namespace
