// Time-travel debugging tests: snapshot round-trips, checkpoint-ring
// accounting, rewind + re-execution byte-identity, step-back after a
// breakpoint, bisect fault localization, hub-routed rewind isolation,
// hosted and bare sessions taking cadence checkpoints at the same
// instants, and the typed refusals (non-deterministic transports,
// out-of-range targets).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "core/observer.hpp"
#include "core/session.hpp"
#include "core/transports.hpp"
#include "hub/controller.hpp"
#include "proto/scenarios.hpp"
#include "proto/script.hpp"
#include "replay/checkpoint.hpp"
#include "replay/snapshot.hpp"
#include "replay/timeline.hpp"
#include "scene_state.hpp"

namespace gc = gmdf::comdes;
namespace gm = gmdf::meta;
namespace gp = gmdf::proto;
namespace gr = gmdf::replay;
namespace rt = gmdf::rt;
using gmdf::core::EngineState;

namespace {

gp::Response exec(gp::Scenario& s, const std::string& line) {
    return s.controller().execute_line(line);
}

void expect_ok(gp::Scenario& s, const std::string& line) {
    auto resp = exec(s, line);
    EXPECT_TRUE(resp.ok()) << line << " -> " << resp.message;
}

/// Gives `owner` (a composite FB or a mode) a network of one basic FB
/// "k": its `out` maps to the outer pin y, its `in` (when `reads_x`) from
/// the outer pin x.
void add_inner_block(gm::Model& m, gm::MObject& owner, const std::string& kind,
                     gm::Value::List params, bool reads_x) {
    const auto& c = gc::comdes_metamodel();
    auto& net = m.create(*c.network);
    owner.set_ref("network", net.id());
    auto& k = m.create(*c.basic_fb);
    k.set_attr("name", gm::Value("k"));
    k.set_attr("kind", gm::Value(kind));
    k.set_attr("params", gm::Value(std::move(params)));
    net.add_ref("blocks", k.id());
    auto map = [&](const char* outer, const char* inner, const char* direction) {
        auto& pm = m.create(*c.port_map);
        pm.set_attr("outer_pin", gm::Value(outer));
        pm.set_attr("inner_fb", gm::Value("k"));
        pm.set_attr("inner_pin", gm::Value(inner));
        pm.set_attr("direction", gm::Value(direction));
        owner.add_ref("port_maps", pm.id());
    };
    if (reads_x) map("x", "in", "in");
    map("y", "out", "out");
}

/// One 10 ms actor whose only block keeps its state inside nested
/// programs. "modal": selector `mode`, mode 0 is const 0, mode 1
/// integrates x, and mode switches 1, 0, 1 at 100, 600 and 800 ms.
/// "composite": a composite wrapping the same integrator. Either way x
/// steps from 1 to 2 at 700 ms.
std::unique_ptr<gp::Scenario> make_nested_scenario(const std::string& kind) {
    auto s = std::make_unique<gp::Scenario>(kind);
    gm::Model& m = s->sys.model();
    const auto& c = gc::comdes_metamodel();
    gm::ObjectId mode_sig = s->sys.add_signal("mode", "int_");
    gm::ObjectId x_sig = s->sys.add_signal("x", "real_", 1.0);
    gm::ObjectId y_sig = s->sys.add_signal("y");
    auto actor = s->sys.add_actor("ctl", 10'000);
    const gm::Value::List integrator{gm::Value(1.0), gm::Value(0.0)};
    gm::MObject* block = nullptr;
    if (kind == "modal") {
        block = &m.create(*c.modal_fb);
        block->set_attr("selector_pin", gm::Value("mode"));
        for (int value = 0; value < 2; ++value) {
            auto& mode = m.create(*c.mode);
            mode.set_attr("name", gm::Value("m" + std::to_string(value)));
            mode.set_attr("value", gm::Value(value));
            if (value == 0)
                add_inner_block(m, mode, "const_", {gm::Value(0.0)}, false);
            else
                add_inner_block(m, mode, "integrator_", integrator, true);
            block->add_ref("modes", mode.id());
        }
        s->stimuli.push_back({mode_sig, 1.0, 100 * rt::kMs, 0});
        s->stimuli.push_back({mode_sig, 0.0, 600 * rt::kMs, 0});
        s->stimuli.push_back({mode_sig, 1.0, 800 * rt::kMs, 0});
    } else {
        block = &m.create(*c.composite_fb);
        add_inner_block(m, *block, "integrator_", integrator, true);
    }
    block->set_attr("name", gm::Value("nested"));
    m.at(actor.network_id()).add_ref("blocks", block->id());
    if (kind == "modal") actor.bind_input(mode_sig, block->id(), "mode");
    actor.bind_input(x_sig, block->id(), "x");
    actor.bind_output(block->id(), "y", y_sig);
    s->stimuli.push_back({x_sig, 2.0, 700 * rt::kMs, 0});
    EXPECT_TRUE(gp::validate_scenario(*s));
    gp::wire_scenario(*s);
    return s;
}

} // namespace

// ---- snapshot layer ---------------------------------------------------------

// Capture / restore / re-capture yields bit-identical bytes, and the
// restored platform re-executes into a bit-identical future: the full
// deterministic state (signal replicas, RAM, DES queue incl. in-flight
// ops and re-armed periods, task stats, FB internals) round-trips.
TEST(Snapshot, RoundTripAndReExecutionAreBitIdentical) {
    auto s = gp::make_scenario("turntable");
    ASSERT_NE(s, nullptr);
    // 130 ms: the part stimulus fired, the at-position stimulus is still
    // an in-flight pending op, jobs and latches are mid-air.
    s->target.run_for(130 * rt::kMs);
    gr::Snapshot a = gr::capture_snapshot(s->target, *s->session);
    EXPECT_EQ(a.time, 130 * rt::kMs);
    EXPECT_GT(a.size_bytes(), 0u);

    s->target.run_for(100 * rt::kMs);
    gr::Snapshot b = gr::capture_snapshot(s->target, *s->session);

    gr::restore_snapshot(a, s->target, *s->session);
    EXPECT_EQ(s->target.sim().now(), 130 * rt::kMs);
    gr::Snapshot a2 = gr::capture_snapshot(s->target, *s->session);
    EXPECT_EQ(a.bytes, a2.bytes) << "restore + re-capture must be bit-identical";

    s->target.run_for(100 * rt::kMs);
    gr::Snapshot b2 = gr::capture_snapshot(s->target, *s->session);
    EXPECT_EQ(b.bytes, b2.bytes)
        << "re-execution from a restored snapshot must be bit-identical";
}

// The generated model gen:1 emits more than the 115,200-baud wire
// carries, so at 1.2 s its UART backlog leaves 192 ops pending. The op
// table reuses freed slots, so these live ops sit out of id order; a
// capture still lists them by id, and a restore re-creates them so that
// re-capture and re-execution are byte-identical.
TEST(Snapshot, RoundTripWithADeepUartBacklogIsBitIdentical) {
    auto s = gp::make_scenario("gen:1");
    ASSERT_NE(s, nullptr);
    s->target.run_for(1200 * rt::kMs);
    EXPECT_GT(s->target.sim().pending_one_shot(), 100u);
    gr::Snapshot a = gr::capture_snapshot(s->target, *s->session);
    s->target.run_for(100 * rt::kMs);
    gr::Snapshot b = gr::capture_snapshot(s->target, *s->session);

    gr::restore_snapshot(a, s->target, *s->session);
    gr::Snapshot a2 = gr::capture_snapshot(s->target, *s->session);
    EXPECT_EQ(a.bytes, a2.bytes) << "restore + re-capture must be bit-identical";
    s->target.run_for(100 * rt::kMs);
    gr::Snapshot b2 = gr::capture_snapshot(s->target, *s->session);
    EXPECT_EQ(b.bytes, b2.bytes)
        << "re-execution from a restored snapshot must be bit-identical";
}

// Task statistics keep a fixed-size summary of the output-latch offsets,
// so an image of a steady model is as large after a minute as after a
// second.
TEST(Snapshot, ImageSizeDoesNotGrowWithSimulatedTime) {
    auto s = gp::make_scenario("turntable");
    ASSERT_NE(s, nullptr);
    s->target.run_for(1 * rt::kSec);
    const std::size_t early = gr::capture_snapshot(s->target, *s->session).size_bytes();
    s->target.run_for(60 * rt::kSec);
    const std::size_t late = gr::capture_snapshot(s->target, *s->session).size_bytes();
    EXPECT_EQ(early, late);
}

TEST(Snapshot, RestoreRejectsGarbage) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    s->target.run_for(50 * rt::kMs);
    gr::Snapshot snap = gr::capture_snapshot(s->target, *s->session);
    snap.bytes[0] ^= 0xFF; // break the magic
    EXPECT_THROW(gr::restore_snapshot(snap, s->target, *s->session),
                 gr::SnapshotError);
}

// Raw one-shot closures on the simulator (outside the target's pending
// op registry) cannot be restored — capture refuses loudly instead of
// producing a snapshot that would silently drop them.
TEST(Snapshot, RefusesUnrestorableOneShotEvents) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    s->target.run_for(10 * rt::kMs);
    s->target.sim().after(5 * rt::kMs, [] {});
    EXPECT_THROW((void)gr::capture_snapshot(s->target, *s->session),
                 gr::SnapshotError);
}

// ---- checkpoint ring --------------------------------------------------------

TEST(CheckpointStore, ByteBudgetEvictsOldestAndAccounts) {
    gr::CheckpointStore store;
    store.set_byte_limit(1000);
    auto make = [](rt::SimTime t, std::size_t bytes) {
        gr::Checkpoint cp;
        cp.snap.time = t;
        cp.snap.bytes.assign(bytes, 0xAB);
        return cp;
    };
    store.add(make(0, 400));
    store.add(make(100, 400));
    ASSERT_EQ(store.stats().count, 2u);
    EXPECT_EQ(store.stats().bytes, 800u);
    EXPECT_EQ(store.stats().evictions, 0u);

    store.add(make(200, 400)); // 1200 > 1000: oldest out
    EXPECT_EQ(store.stats().count, 2u);
    EXPECT_EQ(store.stats().bytes, 800u);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.stats().captures, 3u);
    EXPECT_EQ(store.earliest_time().value(), 100);

    // The newest checkpoint always survives, even over budget.
    store.add(make(300, 5000));
    EXPECT_EQ(store.stats().count, 1u);
    EXPECT_EQ(store.stats().bytes, 5000u);
    EXPECT_EQ(store.stats().evictions, 3u);

    EXPECT_EQ(store.nearest_at_or_before(299), nullptr);
    EXPECT_EQ(store.nearest_at_or_before(301)->snap.time, 300);
    store.drop_after(250);
    EXPECT_EQ(store.stats().count, 0u);
}

// ---- rewind -----------------------------------------------------------------

// The acceptance criterion: rewind <t> then run re-produces the original
// forward transcript byte-identically (VCD over the whole run).
TEST(Rewind, ReExecutionReproducesTheForwardTranscript) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 100");
    expect_ok(*s, "run 1000");
    std::string vcd1 = s->session->vcd();
    std::size_t events1 = s->session->trace().size();
    ASSERT_GT(events1, 0u);

    auto resp = exec(*s, "rewind 400");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(s->target.sim().now(), 400 * rt::kMs);
    EXPECT_LT(s->session->trace().size(), events1);

    expect_ok(*s, "run 600");
    EXPECT_EQ(s->target.sim().now(), 1000 * rt::kMs);
    EXPECT_EQ(s->session->trace().size(), events1);
    EXPECT_EQ(s->session->vcd(), vcd1)
        << "rewind + run must reproduce the original transcript";
}

// Rewinding to a time between checkpoints restores the nearest one and
// deterministically catches up, without double-reporting into the trace
// or divergence log.
TEST(Rewind, CatchUpDoesNotDoubleReport) {
    auto s = gp::make_scenario("turntable");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 100");
    expect_ok(*s, "run 400");
    std::string vcd1 = s->session->vcd();
    std::size_t events1 = s->session->trace().size();

    // 250 ms sits between the 200 and 300 ms checkpoints.
    auto resp = exec(*s, "rewind 250");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(s->target.sim().now(), 250 * rt::kMs);
    for (const auto& ev : s->session->trace().events())
        EXPECT_LE(ev.t, 250 * rt::kMs);

    expect_ok(*s, "run 150");
    EXPECT_EQ(s->session->trace().size(), events1);
    EXPECT_EQ(s->session->vcd(), vcd1);
}

// Control actions issued after a checkpoint (breakpoint adds, resumes)
// are journaled and re-applied during catch-up, so a rewind across them
// reproduces the exact pause/resume shape of the original run.
TEST(Rewind, ReplaysJournaledControlActions) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 100");
    expect_ok(*s, "run 300");
    expect_ok(*s, "break add state on"); // added AFTER the 300 ms checkpoint
    expect_ok(*s, "run 700");            // hits just past 300 ms, stays paused
    ASSERT_EQ(s->session->engine().state(), EngineState::Paused);
    rt::SimTime hit_t = s->session->trace().events().back().t;
    expect_ok(*s, "resume");
    expect_ok(*s, "run 500");            // re-hits at the next 'on' entry
    ASSERT_EQ(s->session->engine().state(), EngineState::Paused);
    std::string vcd1 = s->session->vcd();

    // 320 ms is after the hit: catch-up must replay the breakpoint add
    // from the journal and re-pause the target at the same spot.
    auto resp = exec(*s, "rewind 320");
    ASSERT_TRUE(resp.ok()) << resp.message;
    ASSERT_GT(hit_t, 300 * rt::kMs);
    ASSERT_LT(hit_t, 320 * rt::kMs);
    EXPECT_EQ(s->session->engine().state(), EngineState::Paused)
        << "the replayed breakpoint must have re-paused the target";

    expect_ok(*s, "run 680");
    expect_ok(*s, "resume");
    expect_ok(*s, "run 500");
    EXPECT_EQ(s->session->vcd(), vcd1);

    // The same script hosted in a hub, next to a turntable session b: the
    // pump moves a's clock, and a's timeline hears only of its controls.
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("pump threads " + std::to_string(threads));
        gmdf::hub::HubController hub;
        hub.scheduler().set_threads(threads);
        ASSERT_NE(hub.open("blinker", "a"), nullptr);
        ASSERT_NE(hub.open("turntable", "b"), nullptr);
        auto hub_ok = [&hub](const char* line) {
            auto r = hub.execute_line(line);
            EXPECT_TRUE(r.ok()) << line << " -> " << r.message;
        };
        for (const char* line : {"@a checkpoint auto 100", "run 300",
                                 "@a break add state on", "run 700", "@a resume", "run 500"})
            hub_ok(line);
        const auto& entries = hub.registry().entries();
        gp::Scenario& a = *entries[0]->scenario;
        gp::Scenario& b = *entries[1]->scenario;
        ASSERT_EQ(a.session->engine().state(), EngineState::Paused);
        const std::string a_vcd = a.session->vcd();
        const std::string b_vcd = b.session->vcd();
        const rt::SimTime b_now = b.target.sim().now();

        auto rewound = hub.execute_line("@a rewind 320");
        ASSERT_TRUE(rewound.ok()) << rewound.message;
        EXPECT_EQ(a.session->engine().state(), EngineState::Paused);
        EXPECT_EQ(b.target.sim().now(), b_now);
        EXPECT_EQ(b.session->vcd(), b_vcd);

        for (const char* line : {"run 680", "@a resume", "run 500"}) hub_ok(line);
        EXPECT_EQ(a.session->vcd(), a_vcd);
    }
}

// A control op stamped exactly at the rewind target belongs to time t
// (trace events at t are kept, so the journal boundary must match):
// pausing at 100 ms and rewinding to 100 ms lands on a paused session.
TEST(Rewind, ControlsAtTheExactTargetInstantAreReplayed) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 50");
    expect_ok(*s, "run 100");
    expect_ok(*s, "pause"); // journaled at exactly 100 ms, after the checkpoint
    expect_ok(*s, "run 200");
    std::string vcd1 = s->session->vcd();

    auto resp = exec(*s, "rewind 100");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(s->session->engine().state(), EngineState::Paused)
        << "the pause issued at the rewind instant must be replayed";

    expect_ok(*s, "run 200");
    EXPECT_EQ(s->session->vcd(), vcd1);
}

// Each journaled control replays at its own sim time: a rewind between a
// pause and the resume after it lands paused, and the re-run from there
// reproduces the original execution.
TEST(Rewind, ControlsReplayAtTheirOwnSimTime) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    for (const char* line :
         {"checkpoint now", "run 250", "pause", "run 100", "resume", "run 200"})
        expect_ok(*s, line);
    std::string vcd1 = s->session->vcd();

    // The blinker releases every 100 ms: a pause replayed early would
    // suppress the releases at 100 and 200 ms.
    auto resp = exec(*s, "rewind 300");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(s->session->engine().state(), EngineState::Paused)
        << "the pause at 250 ms must replay, the resume at 350 ms must not";
    for (const char* line : {"run 50", "resume", "run 200"}) expect_ok(*s, line);
    EXPECT_EQ(s->session->vcd(), vcd1);
}

TEST(Rewind, OutOfRangeIsAStructuredErrorWithTheReachableWindow) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "run 300");

    // No checkpoints at all: typed refusal.
    auto none = exec(*s, "rewind 100");
    EXPECT_EQ(none.code, gp::ErrorCode::BadState);

    // A checkpoint at 300 ms makes [300, now] reachable; 100 ms is not.
    expect_ok(*s, "checkpoint now");
    expect_ok(*s, "run 100");
    auto early = exec(*s, "rewind 100");
    EXPECT_EQ(early.code, gp::ErrorCode::BadArgument);
    EXPECT_NE(early.message.find("reachable window"), std::string::npos)
        << early.message;
    EXPECT_NE(early.message.find(std::to_string(300 * rt::kMs)), std::string::npos)
        << "window should name the earliest checkpoint: " << early.message;

    // The future is out of range too.
    auto future = exec(*s, "rewind 9999");
    EXPECT_EQ(future.code, gp::ErrorCode::BadArgument);
}

// Passive (JTAG) transports hold host-side probe state the snapshot
// cannot carry; rewind and checkpointing are refused with typed errors.
TEST(Rewind, RefusedOnPassiveJtagTransport) {
    gmdf::comdes::SystemBuilder sys{"passive"};
    auto led = sys.add_signal("led", "bool_");
    auto actor = sys.add_actor("blinker", 100'000);
    auto sm = actor.add_sm("toggler", {"tick"}, {"out"});
    auto off = sm.add_state("off", {{"out", "0"}});
    auto on = sm.add_state("on", {{"out", "1"}});
    sm.add_transition(off, on, "tick");
    sm.add_transition(on, off, "tick");
    auto one = actor.add_basic("one", "const_", {1.0});
    actor.connect(one, "out", sm.sm_id(), "tick");
    actor.bind_output(sm.sm_id(), "out", led);

    rt::Target target;
    auto loaded = gmdf::codegen::load_system(
        target, sys.model(), gmdf::codegen::InstrumentOptions::passive());
    gmdf::core::DebugSession session(sys.model());
    session.attach(gmdf::core::make_passive_jtag_transport(target, loaded, sys.model(),
                                                           5 * rt::kMs));
    target.start();
    target.run_for(50 * rt::kMs);

    gr::Timeline timeline(target, session);
    std::string error;
    EXPECT_EQ(timeline.capture_now(&error), nullptr);
    EXPECT_NE(error.find("passive-jtag"), std::string::npos) << error;
    auto err = timeline.rewind_to(10 * rt::kMs);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, gr::NavError::Kind::NotDeterministic);
}

// ---- step-back --------------------------------------------------------------

// After a breakpoint pauses the session, step-back rewinds to just
// before the triggering event; running forward hits the same breakpoint
// at the same simulated time again.
TEST(StepBack, ReArmsTheSameBreakpoint) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 50");
    expect_ok(*s, "break add state on");
    expect_ok(*s, "run 1000");
    ASSERT_EQ(s->session->engine().state(), EngineState::Paused);
    ASSERT_GT(s->session->trace().size(), 0u);
    rt::SimTime hit_t = s->session->trace().events().back().t;
    (void)s->controller().drain_events();

    auto resp = exec(*s, "step-back 1");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(s->target.sim().now(), hit_t - 1);
    EXPECT_NE(s->session->engine().state(), EngineState::Paused)
        << "before the hit the target had not been halted";

    expect_ok(*s, "run 1000");
    ASSERT_EQ(s->session->engine().state(), EngineState::Paused);
    EXPECT_EQ(s->session->trace().events().back().t, hit_t)
        << "the same breakpoint must re-fire at the same sim time";
    bool saw_hit = false;
    for (const auto& ev : s->controller().drain_events())
        if (ev.kind == gp::Event::Kind::BreakpointHit) saw_hit = true;
    EXPECT_TRUE(saw_hit);
}

// ---- bisect -----------------------------------------------------------------

// The lift_fault scenario generates code from a model with an injected
// wrong-transition-target fault while the debugger keeps the design:
// bisect must localize the exact step where behaviour left the model.
TEST(Bisect, LocalizesTheSeededFault) {
    auto s = gp::make_scenario("lift_fault");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 50");
    expect_ok(*s, "run 600");
    const auto& divs = s->session->divergences();
    ASSERT_FALSE(divs.empty()) << "the injected fault must trip the checker";
    rt::SimTime now_before = s->target.sim().now();

    gr::BisectResult res = s->timeline->bisect();
    ASSERT_TRUE(res.error.empty()) << res.error;
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.t, divs.front().t)
        << "the first bad step is where the first divergence fired";
    EXPECT_EQ(res.reason, divs.front().message);
    EXPECT_GT(res.probes, 1u) << "bisect must actually probe the timeline";
    ASSERT_LT(res.step, s->session->trace().size());
    EXPECT_EQ(s->session->trace().events()[res.step].t, res.t);
    EXPECT_EQ(s->session->trace().events()[res.step].cmd.kind,
              gmdf::link::Cmd::StateEnter)
        << "the culprit is the state entry that tripped the checker, not a "
           "same-timestamp neighbour";

    // Bisect probes must leave the session exactly where it was.
    EXPECT_EQ(s->target.sim().now(), now_before);
    EXPECT_EQ(s->session->divergences().size(), divs.size());
}

TEST(Bisect, CleanTimelineReportsNoDivergence) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint now");
    expect_ok(*s, "run 500");
    gr::BisectResult res = s->timeline->bisect();
    ASSERT_TRUE(res.error.empty()) << res.error;
    EXPECT_FALSE(res.found);
    EXPECT_GE(res.probes, 1u);
}

// Anchored bisect: every probe restores the latest checkpoint whose
// prefix has already replayed faithfully, so cadence captures must
// change how much is re-executed and never what bisect reports. Each
// case drives one scenario twice through the same script, once with
// `checkpoint auto 50` and once holding only a t = 0 checkpoint.
struct BisectCase {
    const char* scenario;
    std::vector<std::string> script; ///< after the checkpoint setup
};

void PrintTo(const BisectCase& c, std::ostream* os) { *os << c.scenario; }

/// Counts the commands the engine re-executes while bisect probes.
struct ReplayCounter final : gmdf::core::EngineObserver {
    [[nodiscard]] bool replay_aware() const override { return true; }
    void on_command(const gmdf::link::Command&, rt::SimTime) override { ++commands; }
    std::size_t commands = 0;
};

struct BisectRun {
    gr::BisectResult result;
    std::size_t reexecuted = 0;
    std::size_t trace_size = 0;
    std::size_t checkpoints = 0;
};

BisectRun run_and_bisect(const BisectCase& c, const std::string& checkpoint_setup) {
    BisectRun out;
    auto s = gp::make_scenario(c.scenario);
    if (s == nullptr) {
        ADD_FAILURE() << "unknown scenario " << c.scenario;
        return out;
    }
    expect_ok(*s, checkpoint_setup);
    for (const std::string& line : c.script) expect_ok(*s, line);
    EXPECT_FALSE(s->session->divergences().empty()) << "the injected fault must trip the checker";
    ReplayCounter counter;
    s->session->engine().add_observer(&counter);
    out.result = s->timeline->bisect();
    s->session->engine().remove_observer(&counter);
    out.reexecuted = counter.commands;
    out.trace_size = s->session->trace().size();
    out.checkpoints = s->timeline->store().entries().size();
    return out;
}

class AnchoredBisect : public ::testing::TestWithParam<BisectCase> {};

TEST_P(AnchoredBisect, MatchesTheBaselineOnlySearchAndReExecutesLess) {
    BisectRun cadence = run_and_bisect(GetParam(), "checkpoint auto 50");
    BisectRun baseline = run_and_bisect(GetParam(), "checkpoint now");
    ASSERT_TRUE(cadence.result.error.empty()) << cadence.result.error;
    ASSERT_TRUE(baseline.result.error.empty()) << baseline.result.error;
    ASSERT_TRUE(baseline.result.found);
    ASSERT_GT(cadence.checkpoints, 2u);
    ASSERT_EQ(baseline.checkpoints, 1u);

    EXPECT_EQ(cadence.result.found, baseline.result.found);
    EXPECT_EQ(cadence.result.step, baseline.result.step);
    EXPECT_EQ(cadence.result.t, baseline.result.t);
    EXPECT_EQ(cadence.result.command, baseline.result.command);
    EXPECT_EQ(cadence.result.reason, baseline.result.reason);
    EXPECT_EQ(cadence.result.steps_searched, baseline.result.steps_searched);
    EXPECT_EQ(cadence.result.probes, baseline.result.probes);

    EXPECT_LT(cadence.reexecuted, baseline.reexecuted)
        << "cadence captures must serve as probe anchors";
    EXPECT_LT(baseline.reexecuted, baseline.trace_size)
        << "the first probe stops at the earliest recorded divergence";
}

// The binary search re-executes about log2(k) prefixes of the first bad
// step k, so each run lasts several times longer than its first
// divergence (lift_fault at 206 ms; the generated models at 168, 330
// and 125 ms) for the bound on the first probe to show.
INSTANTIATE_TEST_SUITE_P(
    Scenarios, AnchoredBisect,
    ::testing::Values(
        BisectCase{"lift_fault", {"run 2000"}},
        // Journaled controls between cadence captures: a breakpoint
        // pauses the lift at its first 'moving' entry, then a step, the
        // breakpoint's removal and a resume replay with every probe.
        BisectCase{"lift_fault",
                   {"run 30", "break add state moving", "run 120", "step", "run 15",
                    "break remove 1", "resume", "run 1900"}},
        BisectCase{"gen:5:wrong-transition-target", {"run 2400"}},
        BisectCase{"gen:14:wrong-transition-target", {"run 2400"}},
        BisectCase{"gen:20:wrong-transition-target", {"run 2400"}}));

// A checkpoint carries the state nested FBs keep in their inner
// programs (a modal FB's active mode and held outputs too): re-executing
// from it matches the recorded run, and a rewind reproduces the VCD.
class NestedState : public ::testing::TestWithParam<const char*> {};

TEST_P(NestedState, CheckpointsCarryInnerPrograms) {
    auto s = make_nested_scenario(GetParam());
    expect_ok(*s, "checkpoint now");
    expect_ok(*s, "run 1000");
    gr::BisectResult res = s->timeline->bisect();
    ASSERT_TRUE(res.error.empty()) << res.error;
    EXPECT_FALSE(res.found) << "first divergent step " << res.step << " " << res.command
                            << ": " << res.reason;

    std::string vcd1 = s->session->vcd();
    expect_ok(*s, "rewind 300");
    expect_ok(*s, "run 700");
    EXPECT_EQ(s->session->vcd(), vcd1)
        << "rewind + run must reproduce the original transcript";
}

INSTANTIATE_TEST_SUITE_P(Blocks, NestedState, ::testing::Values("modal", "composite"));

// ---- hub isolation ----------------------------------------------------------

// Rewinding one hosted session must not disturb another: sessions own
// independent targets and timelines; only the addressed one moves.
TEST(Hub, RoutedRewindIsIsolated) {
    gmdf::hub::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    ASSERT_NE(hub.open("blinker", "b"), nullptr);
    ASSERT_TRUE(hub.execute_line("@a checkpoint auto 100").ok());
    ASSERT_TRUE(hub.execute_line("run 300").ok());

    auto& entries = hub.registry().entries();
    gp::Scenario& a = *entries[0]->scenario;
    gp::Scenario& b = *entries[1]->scenario;
    ASSERT_EQ(a.target.sim().now(), 300 * rt::kMs);
    ASSERT_EQ(b.target.sim().now(), 300 * rt::kMs);
    std::string b_vcd = b.session->vcd();
    std::size_t b_events = b.session->trace().size();

    auto resp = hub.execute_line("@a rewind 150");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(a.target.sim().now(), 150 * rt::kMs);
    EXPECT_EQ(b.target.sim().now(), 300 * rt::kMs)
        << "rewinding a must not move b's clock";
    EXPECT_EQ(b.session->vcd(), b_vcd);
    EXPECT_EQ(b.session->trace().size(), b_events);

    // A hub-wide run advances both again, from their own clocks.
    ASSERT_TRUE(hub.execute_line("run 100").ok());
    EXPECT_EQ(a.target.sim().now(), 250 * rt::kMs);
    EXPECT_EQ(b.target.sim().now(), 400 * rt::kMs);
}

// ---- one cadence, hosted or bare --------------------------------------------

// A hub slice and a bare `run` both step a session through
// Scenario::advance, so the timeline alone decides when a cadence
// checkpoint is taken: a hosted session captures at the same instants
// as its bare controller, however the pump slices the run.

namespace {

/// The instants (ns) a `checkpoint list` reply lists, in order.
std::vector<long long> listed_times(const gp::Response& list) {
    std::vector<long long> times;
    for (const std::string& line : list.body)
        if (const std::size_t at = line.find(" @"); at != std::string::npos)
            times.push_back(std::stoll(line.substr(at + 2)));
    return times;
}

/// Replies of a fresh blinker to `lines`: on its own controller when
/// `threads` is 0, else hosted alone by a hub pumping on `threads`.
std::vector<gp::Response> drive_blinker(const std::vector<std::string>& lines,
                                        int threads) {
    std::vector<gp::Response> replies;
    if (threads == 0) {
        auto s = gp::make_scenario("blinker");
        for (const std::string& line : lines) replies.push_back(exec(*s, line));
        return replies;
    }
    gmdf::hub::HubController hub;
    hub.scheduler().set_threads(threads);
    EXPECT_NE(hub.open("blinker", "blinker"), nullptr);
    for (const std::string& line : lines) replies.push_back(hub.execute_line(line));
    return replies;
}

const std::vector<std::string> kCadenceScript = {
    "checkpoint auto 25", "run 100",   "checkpoint list", "checkpoint auto 100",
    "checkpoint now",     "run 200",   "checkpoint list", "rewind 0",
    "checkpoint list",
};

/// kCadenceScript's transcript, as gmdf_dbg --script prints it, from a
/// hub or a bare controller.
template <typename Client>
std::string cadence_transcript(Client& client) {
    std::string text;
    for (const std::string& line : kCadenceScript) text += line + "\n";
    std::istringstream script(text);
    std::ostringstream out;
    EXPECT_EQ(gp::run_script(client, script, out).errors, 0u) << out.str();
    return out.str();
}

} // namespace

TEST(Cadence, HostedTranscriptEqualsTheBareControllers) {
    auto bare = gp::make_scenario("blinker");
    ASSERT_NE(bare, nullptr);
    const std::string expected = cadence_transcript(bare->controller());
    for (int threads : {1, 4}) {
        gmdf::hub::HubController hub;
        hub.scheduler().set_threads(threads);
        ASSERT_NE(hub.open("blinker", "blinker"), nullptr);
        EXPECT_EQ(cadence_transcript(hub), expected) << threads << " pump threads";
    }

    // The instants themselves: the 25 ms grid from t = 0, the explicit
    // capture beside the 100 ms point it stands in for, then the 100 ms
    // grid; the rewind keeps only what precedes t = 0.
    const std::vector<gp::Response> replies = drive_blinker(kCadenceScript, 0);
    constexpr long long kMs = rt::kMs;
    EXPECT_EQ(listed_times(replies[2]),
              (std::vector<long long>{0, 25 * kMs, 50 * kMs, 75 * kMs, 100 * kMs}));
    EXPECT_EQ(listed_times(replies[6]),
              (std::vector<long long>{0, 25 * kMs, 50 * kMs, 75 * kMs, 100 * kMs, 100 * kMs,
                                      200 * kMs, 300 * kMs}));
    EXPECT_EQ(listed_times(replies[8]), std::vector<long long>{0});
}

// With a neighbour the 4-thread pump spawns a worker, so cadence
// captures run on pump workers (the TSan job runs this suite); the
// addressed session still replies as its bare controller does.
TEST(Cadence, CapturesOnPumpWorkersLandOnTheBareInstants) {
    const std::vector<gp::Response> bare = drive_blinker(kCadenceScript, 0);
    gmdf::hub::HubController hub;
    hub.scheduler().set_threads(4);
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    ASSERT_NE(hub.open("turntable", "b"), nullptr);
    ASSERT_TRUE(hub.execute_line("@b checkpoint auto 10").ok());
    for (std::size_t i = 0; i < kCadenceScript.size(); ++i)
        EXPECT_EQ(gp::format_response(hub.execute_line("@a " + kCadenceScript[i])),
                  gp::format_response(bare[i]))
            << kCadenceScript[i];
    const gp::Response b_list = hub.execute_line("@b checkpoint list");
    ASSERT_TRUE(b_list.ok()) << b_list.message;
    EXPECT_EQ(listed_times(b_list).size(), 31u); // 0, 10, ..., 300 ms
}

// The first capture of a hosted session's cadence is the baseline at
// the instant the cadence was set, not the end of the first slice.
TEST(Cadence, FirstHostedCaptureIsTheBaseline) {
    for (int threads : {0, 1, 4}) {
        const std::vector<gp::Response> replies =
            drive_blinker({"checkpoint auto 100", "run 5", "rewind 0"}, threads);
        ASSERT_TRUE(replies[2].ok()) << threads << ": " << replies[2].message;
        EXPECT_EQ(replies[2].body[0], "rewound to 0 ms") << threads;
    }
}

// An explicit capture at a due cadence point is that point's capture,
// so the point is not stored twice.
TEST(Cadence, ExplicitCaptureStandsInForTheDuePoint) {
    for (int threads : {0, 1, 4}) {
        const std::vector<gp::Response> replies = drive_blinker(
            {"checkpoint auto 100", "checkpoint now", "run 300", "checkpoint list"}, threads);
        constexpr long long kMs = rt::kMs;
        EXPECT_EQ(listed_times(replies[3]),
                  (std::vector<long long>{0, 100 * kMs, 200 * kMs, 300 * kMs}))
            << threads << " pump threads (0: bare)";
    }
}

// ---- replay_frames reuse (satellite) ---------------------------------------

// The `replay` verb (DebugSession::replay_frames) now rides the shared
// core::animate_trace; the re-animated final frame equals the live
// scene rendered at the same point.
TEST(Replay, FramesStillMatchLiveAnimation) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "run 500");
    auto frames = s->session->replay_frames(1);
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames.back(), s->session->render_ascii());
}

// `replay` re-animates onto a scene of its own, so it leaves a headless
// session headless; its reply equals that of a twin whose view was built
// before the run.
TEST(Replay, HeadlessReplayLeavesTheViewUnbuilt) {
    auto headless = gp::make_scenario("gen:3");
    auto viewed = gp::make_scenario("gen:3");
    ASSERT_NE(headless, nullptr);
    ASSERT_NE(viewed, nullptr);
    (void)viewed->session->scene();
    for (gp::Scenario* s : {headless.get(), viewed.get()}) expect_ok(*s, "run 500");
    const gp::Response reply = exec(*headless, "replay 8");
    ASSERT_TRUE(reply.ok()) << reply.message;
    EXPECT_FALSE(headless->session->view_built());
    EXPECT_EQ(gp::format_response(reply), gp::format_response(exec(*viewed, "replay 8")));
}

// ---- the view, built on first use -------------------------------------------

// A view built after the run, by re-animating the recorded trace, equals
// one built before the first event and animated live: after a plain run,
// and after run, rewind, run (rewind skips the scene rebuild of a session
// that has no view yet).
class LateView : public ::testing::TestWithParam<const char*> {};

TEST_P(LateView, EqualsAViewAnimatedFromTheStart) {
    for (bool rewind : {false, true}) {
        SCOPED_TRACE(rewind ? "run 700, rewind 333, run 250" : "run 700");
        auto early = gp::make_scenario(GetParam());
        auto late = gp::make_scenario(GetParam());
        ASSERT_NE(early, nullptr);
        ASSERT_NE(late, nullptr);
        ASSERT_EQ(early->session->trace().size(), 0u);
        (void)early->session->scene();
        for (gp::Scenario* s : {early.get(), late.get()}) {
            expect_ok(*s, "checkpoint auto 100");
            expect_ok(*s, "run 700");
            if (rewind) {
                expect_ok(*s, "rewind 333");
                expect_ok(*s, "run 250");
            }
        }
        ASSERT_GT(late->session->trace().size(), 0u);
        ASSERT_FALSE(late->session->view_built());
        gmdf::test::expect_same_view(*late->session, *early->session);
    }
}

INSTANTIATE_TEST_SUITE_P(Models, LateView,
                         ::testing::Values("blinker", "turntable", "lift_fault", "gen:3",
                                           "gen:11:flip-param-sign"));

// Nothing a headless fault hunt does needs the view: a faulted generated
// twin that is run and bisected builds none until something renders.
TEST(View, HeadlessFaultedTwinBuildsNone) {
    auto s = gp::make_scenario("gen:3:wrong-transition-target");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 100");
    expect_ok(*s, "run 600");
    gr::BisectResult res = s->timeline->bisect();
    ASSERT_TRUE(res.error.empty()) << res.error;
    EXPECT_GE(res.probes, 1u);
    EXPECT_FALSE(s->session->view_built());
    expect_ok(*s, "render ascii");
    EXPECT_TRUE(s->session->view_built());
}

// ---- golden scenario --------------------------------------------------------

// The end-to-end time-travel workflow (checkpoint config, rewind,
// step-back, both bisect outcomes, hub routing) as a byte-stable
// transcript, the same fixture CI diffs against gmdf_dbg.
TEST(Golden, TimetravelScriptTranscriptIsByteStable) {
    gmdf::hub::HubController hub;
    ASSERT_NE(hub.open("blinker", "blinker"), nullptr);
    std::ifstream script(std::string(GMDF_SOURCE_DIR) + "/examples/timetravel.gds");
    ASSERT_TRUE(script) << "missing examples/timetravel.gds";
    std::ostringstream out;
    auto result = gp::run_script(hub, script, out);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_TRUE(result.quit);

    std::ifstream golden_file(std::string(GMDF_SOURCE_DIR) +
                              "/tests/golden/timetravel_transcript.txt");
    ASSERT_TRUE(golden_file) << "missing tests/golden/timetravel_transcript.txt";
    std::ostringstream golden;
    golden << golden_file.rdbuf();
    EXPECT_EQ(out.str(), golden.str());
}

int main(int argc, char** argv) {
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
