// Tests for model transformation: flattening, the loader (instrumented
// execution on the simulated target), the C emitter (including a golden
// compile-and-compare against the interpreter), and fault injection.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "codegen/cemit.hpp"
#include "codegen/faults.hpp"
#include "codegen/flatten.hpp"
#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "comdes/validate.hpp"
#include "link/framing.hpp"

namespace gc = gmdf::comdes;
namespace gg = gmdf::codegen;
namespace gl = gmdf::link;
namespace gm = gmdf::meta;
namespace rt = gmdf::rt;

namespace {

// --- Flattening ---------------------------------------------------------------

TEST(Flatten, GainChain) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    auto g1 = a.add_basic("g1", "gain_", {2.0});
    auto g2 = a.add_basic("g2", "gain_", {3.0});
    a.connect(g1, "out", g2, "in");
    std::vector<gg::ExtBinding> ins{{"g1", "in", 0}};
    std::vector<gg::ExtBinding> outs{{"g2", "out", 0}};
    auto prog = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), ins, outs,
                                    nullptr);
    double in = 5.0, out = 0.0;
    prog.run({&in, 1}, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 30.0);
}

TEST(Flatten, UnconnectedInputReadsZero) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    a.add_basic("sum", "add_"); // both inputs unconnected
    std::vector<gg::ExtBinding> outs{{"sum", "out", 0}};
    auto prog = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), {}, outs,
                                    nullptr);
    double out = -1.0;
    prog.run({}, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 0.0);
}

TEST(Flatten, DelayFeedbackAccumulator) {
    // out = delay(out) + in  — classic accumulator via delay-broken cycle.
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    auto sum = a.add_basic("sum", "add_");
    auto d = a.add_basic("d", "delay_", {1.0});
    a.connect(sum, "out", d, "in");
    a.connect(d, "out", sum, "in2");
    std::vector<gg::ExtBinding> ins{{"sum", "in1", 0}};
    std::vector<gg::ExtBinding> outs{{"sum", "out", 0}};
    auto prog = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), ins, outs,
                                    nullptr);
    double in = 1.0, out = 0.0;
    for (int i = 1; i <= 5; ++i) {
        prog.run({&in, 1}, {&out, 1}, 0.001);
        EXPECT_DOUBLE_EQ(out, i);
    }
}

TEST(Flatten, CombinationalCycleThrows) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    auto g1 = a.add_basic("g1", "gain_", {1.0});
    auto g2 = a.add_basic("g2", "gain_", {1.0});
    a.connect(g1, "out", g2, "in");
    a.connect(g2, "out", g1, "in");
    EXPECT_THROW((void)gg::flatten_network(sys.model(), sys.model().at(a.network_id()), {},
                                           {}, nullptr),
                 std::invalid_argument);
}

TEST(Flatten, CompositeEncapsulates) {
    // Composite "scale2": inner gain of 2, mapped in/out.
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    const auto& c = gc::comdes_metamodel();
    auto& comp = sys.model().create(*c.composite_fb);
    comp.set_attr("name", gm::Value("scale2"));
    auto& inner_net = sys.model().create(*c.network);
    comp.set_ref("network", inner_net.id());
    auto& inner_gain = sys.model().create(*c.basic_fb);
    inner_gain.set_attr("name", gm::Value("g"));
    inner_gain.set_attr("kind", gm::Value("gain_"));
    inner_gain.set_attr("params", gm::Value(gm::Value::List{gm::Value(2.0)}));
    inner_net.add_ref("blocks", inner_gain.id());
    auto add_map = [&](const char* outer, const char* fb, const char* pin, const char* dir) {
        auto& pm = sys.model().create(*c.port_map);
        pm.set_attr("outer_pin", gm::Value(outer));
        pm.set_attr("inner_fb", gm::Value(fb));
        pm.set_attr("inner_pin", gm::Value(pin));
        pm.set_attr("direction", gm::Value(dir));
        comp.add_ref("port_maps", pm.id());
    };
    add_map("x", "g", "in", "in");
    add_map("y", "g", "out", "out");
    sys.model().at(a.network_id()).add_ref("blocks", comp.id());

    std::vector<gg::ExtBinding> ins{{"scale2", "x", 0}};
    std::vector<gg::ExtBinding> outs{{"scale2", "y", 0}};
    auto prog = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), ins, outs,
                                    nullptr);
    double in = 7.0, out = 0.0;
    prog.run({&in, 1}, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 14.0);
}

struct ModeObserver : gg::ProgramObserver {
    std::vector<gm::ObjectId> modes;
    void on_state_enter(gm::ObjectId, gm::ObjectId) override {}
    void on_transition(gm::ObjectId, gm::ObjectId) override {}
    void on_mode_change(gm::ObjectId, gm::ObjectId mode) override { modes.push_back(mode); }
};

// Builds a modal FB with two modes: mode 0 passes through, mode 1 doubles.
struct ModalFixture {
    gc::SystemBuilder sys{"s"};
    gm::ObjectId network;
    gm::ObjectId mode0, mode1;

    ModalFixture() {
        auto a = sys.add_actor("a", 1000);
        network = a.network_id();
        const auto& c = gc::comdes_metamodel();
        auto& modal = sys.model().create(*c.modal_fb);
        modal.set_attr("name", gm::Value("ctl"));
        modal.set_attr("selector_pin", gm::Value("mode"));
        auto make_mode = [&](const char* name, std::int64_t value, double gain) {
            auto& mode = sys.model().create(*c.mode);
            mode.set_attr("name", gm::Value(name));
            mode.set_attr("value", gm::Value(value));
            auto& net = sys.model().create(*c.network);
            mode.set_ref("network", net.id());
            auto& g = sys.model().create(*c.basic_fb);
            g.set_attr("name", gm::Value("g"));
            g.set_attr("kind", gm::Value("gain_"));
            g.set_attr("params", gm::Value(gm::Value::List{gm::Value(gain)}));
            net.add_ref("blocks", g.id());
            auto add_map = [&](const char* outer, const char* pin, const char* dir) {
                auto& pm = sys.model().create(*c.port_map);
                pm.set_attr("outer_pin", gm::Value(outer));
                pm.set_attr("inner_fb", gm::Value("g"));
                pm.set_attr("inner_pin", gm::Value(pin));
                pm.set_attr("direction", gm::Value(dir));
                mode.add_ref("port_maps", pm.id());
            };
            add_map("x", "in", "in");
            add_map("y", "out", "out");
            modal.add_ref("modes", mode.id());
            return mode.id();
        };
        mode0 = make_mode("pass", 0, 1.0);
        mode1 = make_mode("boost", 1, 2.0);
        sys.model().at(network).add_ref("blocks", modal.id());
    }
};

TEST(Flatten, ModalSwitchesAndHolds) {
    ModalFixture f;
    ModeObserver obs;
    std::vector<gg::ExtBinding> ins{{"ctl", "mode", 0}, {"ctl", "x", 1}};
    std::vector<gg::ExtBinding> outs{{"ctl", "y", 0}};
    auto prog =
        gg::flatten_network(f.sys.model(), f.sys.model().at(f.network), ins, outs, &obs);

    std::array<double, 2> in{0.0, 5.0};
    double out = 0.0;
    prog.run(in, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 5.0); // pass-through mode
    in = {1.0, 5.0};
    prog.run(in, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 10.0); // boost mode
    in = {9.0, 100.0};           // unknown selector: outputs hold
    prog.run(in, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 10.0);
    ASSERT_EQ(obs.modes.size(), 2u);
    EXPECT_EQ(obs.modes[0], f.mode0);
    EXPECT_EQ(obs.modes[1], f.mode1);
}

TEST(Flatten, StaticCostPositiveAndMonotonic) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    auto g1 = a.add_basic("g1", "gain_", {1.0});
    (void)g1;
    auto small = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), {}, {},
                                     nullptr);
    a.add_basic("pid", "pid_", {1, 1, 0, -10, 10});
    auto bigger = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), {}, {},
                                      nullptr);
    EXPECT_GT(gg::static_cost(small), 0u);
    EXPECT_GT(gg::static_cost(bigger), gg::static_cost(small));
}

// --- Loader / instrumented execution -------------------------------------------

// Blinker system: a periodic SM toggles `led` every `ticks` scans using a
// counter input driven by a constant.
struct BlinkerFixture {
    gc::SystemBuilder sys{"blink_sys"};
    gm::ObjectId led, sm_id, s_off, s_on;

    BlinkerFixture() {
        led = sys.add_signal("led", "bool_");
        auto a = sys.add_actor("blinker", 10'000); // 10 ms period
        auto smb = a.add_sm("toggler", {"tick"}, {"out"});
        s_off = smb.add_state("off", {{"out", "0"}});
        s_on = smb.add_state("on", {{"out", "1"}});
        smb.add_transition(s_off, s_on, "tick");
        smb.add_transition(s_on, s_off, "tick");
        sm_id = smb.sm_id();
        auto one = a.add_basic("one", "const_", {1.0});
        a.connect(one, "out", sm_id, "tick");
        a.bind_output(sm_id, "out", led);
        EXPECT_TRUE(gm::is_clean(gc::validate_comdes(sys.model())));
    }
};

TEST(Loader, SystemRunsAndTogglesSignal) {
    BlinkerFixture f;
    rt::Target target;
    auto loaded = gg::load_system(target, f.sys.model(), gg::InstrumentOptions::none());
    ASSERT_EQ(loaded.actors.size(), 1u);
    target.start();

    std::vector<double> observed;
    target.sim().every(15 * rt::kMs, 10 * rt::kMs, [&] {
        observed.push_back(target.node(0).signal(loaded.signal_index.at(f.led.raw)));
    });
    target.run_for(100 * rt::kMs);
    ASSERT_GE(observed.size(), 8u);
    // Toggles every scan: on, off, on, off...
    for (std::size_t i = 0; i + 1 < observed.size(); ++i)
        EXPECT_NE(observed[i], observed[i + 1]);
}

TEST(Loader, ActiveModeEmitsDecodableCommands) {
    BlinkerFixture f;
    rt::Target target;
    auto loaded = gg::load_system(target, f.sys.model(), gg::InstrumentOptions::active());
    (void)loaded;
    gl::FrameDecoder decoder;
    target.set_debug_sink([&](int, std::span<const std::uint8_t> bytes, rt::SimTime) {
        decoder.feed(bytes);
    });
    target.start();
    target.run_for(55 * rt::kMs);

    std::vector<gl::Command> cmds;
    for (const auto& p : decoder.take_payloads()) {
        auto cmd = gl::decode_command(p);
        ASSERT_TRUE(cmd.has_value());
        cmds.push_back(*cmd);
    }
    ASSERT_FALSE(cmds.empty());
    // First scan: TASK_START, STATE_ENTER(initial=off), TRANSITION,
    // STATE_ENTER(on), SIGNAL_UPDATE, TASK_END.
    EXPECT_EQ(cmds[0].kind, gl::Cmd::TaskStart);
    EXPECT_EQ(cmds[1].kind, gl::Cmd::StateEnter);
    EXPECT_EQ(cmds[1].a, static_cast<std::uint32_t>(f.sm_id.raw));
    EXPECT_EQ(cmds[1].b, static_cast<std::uint32_t>(f.s_off.raw));
    EXPECT_EQ(cmds[2].kind, gl::Cmd::Transition);
    EXPECT_EQ(cmds[3].kind, gl::Cmd::StateEnter);
    EXPECT_EQ(cmds[3].b, static_cast<std::uint32_t>(f.s_on.raw));
    bool saw_signal = false;
    for (const auto& c : cmds)
        if (c.kind == gl::Cmd::SignalUpdate) saw_signal = true;
    EXPECT_TRUE(saw_signal);
    EXPECT_GT(target.total_instr_cycles(), 0u);
}

// emit() frames into a reused buffer; the bytes on the wire are exactly
// frame_payload(encode_command(cmd)) for each command, in order.
TEST(Loader, EmittedBytesAreFramePayloadPerCommand) {
    BlinkerFixture f;
    rt::Target target;
    (void)gg::load_system(target, f.sys.model(), gg::InstrumentOptions::active());
    std::vector<std::uint8_t> wire;
    target.set_debug_sink([&](int, std::span<const std::uint8_t> bytes, rt::SimTime) {
        wire.insert(wire.end(), bytes.begin(), bytes.end());
    });
    target.start();
    target.run_for(55 * rt::kMs);

    gl::FrameDecoder decoder;
    decoder.feed(wire);
    std::vector<std::uint8_t> expected;
    std::size_t commands = 0;
    for (const auto& payload : decoder.take_payloads()) {
        auto cmd = gl::decode_command(payload);
        ASSERT_TRUE(cmd.has_value());
        auto frame = gl::frame_payload(gl::encode_command(*cmd));
        expected.insert(expected.end(), frame.begin(), frame.end());
        ++commands;
    }
    EXPECT_GT(commands, 20u);
    EXPECT_EQ(decoder.corrupt_frames(), 0u);
    EXPECT_EQ(wire, expected);
}

TEST(Loader, PassiveModeMirrorsStateWithZeroInstrumentation) {
    BlinkerFixture f;
    rt::Target target;
    auto loaded = gg::load_system(target, f.sys.model(), gg::InstrumentOptions::passive());
    target.start();
    target.run_for(25 * rt::kMs);

    EXPECT_EQ(target.total_instr_cycles(), 0u);
    const auto& mem = target.node(0).memory();
    ASSERT_TRUE(mem.has_symbol("blinker.toggler_state"));
    // After two scans (off->on, on->off) the state is 'off' (index 0);
    // after one scan it is 'on' (index 1). 25ms => 2 scans completed.
    auto state = mem.read_u32(mem.address_of("blinker.toggler_state"));
    EXPECT_EQ(state, 0u);
    ASSERT_TRUE(mem.has_symbol("sig_led"));
    ASSERT_EQ(loaded.actors[0].elements.size(), 1u);
    EXPECT_EQ(loaded.actors[0].elements[0].element, f.sm_id);
}

TEST(Loader, ReleaseModeHasNoMirrorSymbols) {
    BlinkerFixture f;
    rt::Target target;
    (void)gg::load_system(target, f.sys.model(), gg::InstrumentOptions::none());
    EXPECT_FALSE(target.node(0).memory().has_symbol("sig_led"));
    EXPECT_EQ(target.node(0).memory().word_count(), 1u); // SM mirror word only
}

TEST(Loader, ActorsDistributeAcrossNodes) {
    gc::SystemBuilder sys("dist");
    auto x = sys.add_signal("x");
    auto a0 = sys.add_actor("producer", 10'000, 0, /*node=*/0);
    auto c0 = a0.add_basic("one", "const_", {42.0});
    a0.bind_output(c0, "out", x);
    auto a1 = sys.add_actor("consumer", 10'000, 0, /*node=*/1);
    auto g = a1.add_basic("g", "gain_", {1.0});
    a1.bind_input(x, g, "in");

    rt::Target target;
    auto loaded = gg::load_system(target, sys.model(), gg::InstrumentOptions::none());
    EXPECT_EQ(target.node_count(), 2u);
    target.start();
    target.run_for(50 * rt::kMs);
    // Value propagated across the network to node 1's replica.
    EXPECT_DOUBLE_EQ(target.node(1).signal(loaded.signal_index.at(x.raw)), 42.0);
}

// --- C emitter ------------------------------------------------------------------

// Runs an emitted C program against the interpreter on random inputs.
// Model: expression + PID + SM + delay (stateful, eventful).
class GoldenC : public ::testing::TestWithParam<unsigned> {};

TEST_P(GoldenC, CompiledCodeMatchesInterpreter) {
    gc::SystemBuilder sys("gold");
    auto sig_u = sys.add_signal("u");
    auto sig_v = sys.add_signal("v");
    auto sig_y = sys.add_signal("y");
    auto sig_s = sys.add_signal("s");
    auto a = sys.add_actor("ctl", 1000);
    auto e = a.add_basic("mix", "expression_", {}, "a * 0.5 + max(b, 1.0)");
    auto lp = a.add_basic("lp", "lowpass_", {0.05});
    auto smb = a.add_sm("fsm", {"go", "lvl"}, {"speed"});
    auto s0 = smb.add_state("idle", {{"speed", "0"}});
    auto s1 = smb.add_state("run", {{"speed", "lvl * 2"}});
    smb.add_transition(s0, s1, "go", "lvl > 1");
    smb.add_transition(s1, s0, "", "lvl < 0.5");
    auto gt = a.add_basic("gt", "gt_", {2.0});
    a.connect(e, "out", lp, "in");
    a.connect(e, "out", gt, "in");
    a.connect(gt, "out", smb.sm_id(), "go");
    a.bind_input(sig_u, e, "a");
    a.bind_input(sig_v, e, "b");
    a.bind_input(sig_u, smb.sm_id(), "lvl");
    a.bind_output(lp, "out", sig_y);
    a.bind_output(smb.sm_id(), "speed", sig_s);
    ASSERT_TRUE(gm::is_clean(gc::validate_comdes(sys.model())));

    const auto& model = sys.model();
    const gm::MObject* actor = model.find_named(*gc::comdes_metamodel().actor, "ctl");
    ASSERT_NE(actor, nullptr);

    gg::CEmitOptions copts;
    copts.test_main = true;
    copts.dt = 0.001;
    std::string source = gg::emit_actor_c(model, *actor, copts);

    std::string dir = ::testing::TempDir();
    std::string c_path = dir + "/gold_actor.c";
    std::string bin_path = dir + "/gold_actor_" + std::to_string(GetParam());
    {
        std::ofstream f(c_path);
        f << source;
    }
    std::string compile = "cc -O1 -w -o " + bin_path + " " + c_path + " -lm 2>&1";
    ASSERT_EQ(std::system(compile.c_str()), 0) << "generated C failed to compile:\n" << source;

    // Drive both with the same random input sequence.
    std::mt19937 rng(GetParam());
    std::uniform_real_distribution<double> dist(-3.0, 3.0);
    const int kScans = 200;
    std::vector<std::array<double, 3>> inputs; // u, v, u (lvl shares u)
    std::ostringstream stimulus;
    stimulus.precision(17); // round-trippable: both sides see identical values
    for (int i = 0; i < kScans; ++i) {
        double u = dist(rng), v = dist(rng);
        inputs.push_back({u, v, u});
        stimulus << u << " " << v << " " << u << "\n";
    }
    std::string stim_path = dir + "/stim_" + std::to_string(GetParam()) + ".txt";
    {
        std::ofstream f(stim_path);
        f << stimulus.str();
    }
    std::string run = bin_path + " < " + stim_path;
    FILE* pipe = popen(run.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::vector<std::array<double, 2>> c_out;
    double o1, o2;
    while (fscanf(pipe, "%lf %lf", &o1, &o2) == 2) c_out.push_back({o1, o2});
    pclose(pipe);
    ASSERT_EQ(c_out.size(), static_cast<std::size_t>(kScans));

    auto prog = gg::flatten_actor(model, *actor, nullptr);
    for (int i = 0; i < kScans; ++i) {
        std::array<double, 2> out{};
        prog.run(inputs[static_cast<std::size_t>(i)], out, 0.001);
        EXPECT_NEAR(c_out[static_cast<std::size_t>(i)][0], out[0], 1e-9)
            << "scan " << i << " output y";
        EXPECT_NEAR(c_out[static_cast<std::size_t>(i)][1], out[1], 1e-9)
            << "scan " << i << " output speed";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenC, ::testing::Values(7u, 99u));

TEST(CEmit, ContainsExpectedInterface) {
    BlinkerFixture f;
    const gm::MObject* actor =
        f.sys.model().find_named(*gc::comdes_metamodel().actor, "blinker");
    std::string src = gg::emit_actor_c(f.sys.model(), *actor);
    EXPECT_NE(src.find("blinker_state_t"), std::string::npos);
    EXPECT_NE(src.find("void blinker_init"), std::string::npos);
    EXPECT_NE(src.find("void blinker_step"), std::string::npos);
    EXPECT_NE(src.find("GMDF_EMIT"), std::string::npos);
    EXPECT_NE(src.find("volatile unsigned"), std::string::npos); // passive mirror
    EXPECT_EQ(src.find("main("), std::string::npos);             // no test main by default
}

// --- Fault injection ------------------------------------------------------------

TEST(Faults, CloneKeepsIds) {
    BlinkerFixture f;
    gm::Model copy = f.sys.model().clone();
    EXPECT_EQ(copy.size(), f.sys.model().size());
    EXPECT_EQ(copy.at(f.sm_id).name(), "toggler");
    // Deep copy: mutating the clone leaves the original intact.
    copy.at(f.sm_id).set_attr("name", gm::Value("mutated"));
    EXPECT_EQ(f.sys.model().at(f.sm_id).name(), "toggler");
}

TEST(Faults, EachKindReportsOrDeclines) {
    BlinkerFixture f;
    for (auto kind : gg::all_fault_kinds()) {
        gm::Model copy = f.sys.model().clone();
        auto report = gg::inject_fault(copy, kind, 3);
        if (kind == gg::FaultKind::NegateGuard) {
            EXPECT_FALSE(report.has_value()); // blinker has no guards
            continue;
        }
        ASSERT_TRUE(report.has_value()) << gg::to_string(kind);
        EXPECT_FALSE(report->description.empty());
    }
}

TEST(Faults, WrongInitialStateChangesFirstEntry) {
    BlinkerFixture f;
    gm::Model mutated = f.sys.model().clone();
    auto report = gg::inject_fault(mutated, gg::FaultKind::WrongInitialState, 1);
    ASSERT_TRUE(report.has_value());

    auto first_entry = [&](const gm::Model& m) {
        struct Obs : gg::ProgramObserver {
            gm::ObjectId first;
            void on_state_enter(gm::ObjectId, gm::ObjectId s) override {
                if (first.is_null()) first = s;
            }
            void on_transition(gm::ObjectId, gm::ObjectId) override {}
            void on_mode_change(gm::ObjectId, gm::ObjectId) override {}
        } obs;
        const gm::MObject* actor = m.find_named(*gc::comdes_metamodel().actor, "blinker");
        auto prog = gg::flatten_actor(m, *actor, &obs);
        double out = 0.0;
        prog.run({}, {&out, 1}, 0.001);
        return obs.first;
    };
    EXPECT_EQ(first_entry(f.sys.model()), f.s_off);
    EXPECT_EQ(first_entry(mutated), f.s_on); // fault flipped the initial state
}

TEST(Faults, NegateGuardFlipsBehaviour) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    auto smb = a.add_sm("fsm", {"x"}, {"y"});
    auto s0 = smb.add_state("lo", {{"y", "0"}});
    auto s1 = smb.add_state("hi", {{"y", "1"}});
    smb.add_transition(s0, s1, "", "x > 5");
    smb.add_transition(s1, s0, "", "x <= 5");

    gm::Model mutated = sys.model().clone();
    auto report = gg::inject_fault(mutated, gg::FaultKind::NegateGuard, 0);
    ASSERT_TRUE(report.has_value());

    // Drive a stimulus that exercises both transitions and record the
    // state trajectory.
    auto trajectory = [&](const gm::Model& m) {
        const gm::MObject* actor = m.find_named(*gc::comdes_metamodel().actor, "a");
        std::vector<gg::ExtBinding> ins{{"fsm", "x", 0}};
        std::vector<gg::ExtBinding> outs{{"fsm", "state", 0}};
        const gm::MObject* net = m.get(actor->ref("network"));
        auto prog = gg::flatten_network(m, *net, ins, outs, nullptr);
        std::vector<double> states;
        for (double x : {1.0, 9.0, 9.0, 1.0}) {
            double out = 0.0;
            prog.run({&x, 1}, {&out, 1}, 0.001);
            states.push_back(out);
        }
        return states;
    };
    auto original = trajectory(sys.model());
    EXPECT_EQ(original, (std::vector<double>{0, 1, 1, 0}));
    EXPECT_NE(trajectory(mutated), original);
}

TEST(Faults, DropConnectionRemovesObject) {
    BlinkerFixture f;
    gm::Model mutated = f.sys.model().clone();
    auto before = mutated.all_of(*gc::comdes_metamodel().connection).size();
    auto report = gg::inject_fault(mutated, gg::FaultKind::DropConnection, 5);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(mutated.all_of(*gc::comdes_metamodel().connection).size(), before - 1);
}

} // namespace
