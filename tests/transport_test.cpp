// Tests for the pluggable transport API and the engine's observer bus:
// custom transports drive scripted commands through DebugSession::attach,
// observers see one coherent event stream (scene animation, trace,
// divergences, breakpoints incl. one-shot auto-removal), and a second
// scene observer animates two scenes from one session.
#include <gtest/gtest.h>

#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "core/abstraction.hpp"
#include "core/animator.hpp"
#include "core/session.hpp"
#include "core/transports.hpp"

namespace gc = gmdf::comdes;
namespace gg = gmdf::codegen;
namespace gl = gmdf::link;
namespace gm = gmdf::meta;
namespace gco = gmdf::core;
namespace rt = gmdf::rt;

namespace {

// Same two-state machine as core_test's DemoSystem, minus the plumbing.
struct Demo {
    gc::SystemBuilder sys{"demo"};
    gm::ObjectId speed;
    gm::ObjectId sm_id, s_idle, s_run, t_go, t_stop;

    Demo() {
        speed = sys.add_signal("speed", "real_");
        auto a = sys.add_actor("ctl", 10'000);
        auto smb = a.add_sm("machine", {"go"}, {"out"});
        s_idle = smb.add_state("idle", {{"out", "0"}});
        s_run = smb.add_state("run", {{"out", "1"}});
        t_go = smb.add_transition(s_idle, s_run, "go");
        t_stop = smb.add_transition(s_run, s_idle, "", "!go");
        sm_id = smb.sm_id();
        auto one = a.add_basic("one", "const_", {1.0});
        a.connect(one, "out", sm_id, "go");
        a.bind_output(sm_id, "out", speed);
    }

    [[nodiscard]] gl::Command enter(gm::ObjectId state) const {
        return {gl::Cmd::StateEnter, static_cast<std::uint32_t>(sm_id.raw),
                static_cast<std::uint32_t>(state.raw), 0.0f};
    }
    [[nodiscard]] gl::Command fire(gm::ObjectId transition) const {
        return {gl::Cmd::Transition, static_cast<std::uint32_t>(sm_id.raw),
                static_cast<std::uint32_t>(transition.raw), 0.0f};
    }
    [[nodiscard]] gl::Command signal(float v) const {
        return {gl::Cmd::SignalUpdate, static_cast<std::uint32_t>(speed.raw), 0, v};
    }
};

// A transport implemented outside the library: proves the interface is
// the complete seam (no friend access, no session internals needed).
class MockTransport final : public gl::Transport {
public:
    explicit MockTransport(std::vector<gl::Command> script) : script_(std::move(script)) {}

    [[nodiscard]] const char* name() const override { return "mock"; }

    void open(gl::CommandSink& sink) override {
        opened_ = true;
        sink_ = &sink;
    }

    void poll(gl::CommandSink& sink, rt::SimTime now) override {
        for (const gl::Command& cmd : script_) {
            ++delivered_;
            sink.deliver(cmd, now);
        }
        script_.clear();
    }

    void close() override { sink_ = nullptr; }

    [[nodiscard]] gl::TransportStats stats() const override {
        gl::TransportStats s;
        s.commands = delivered_;
        return s;
    }

    [[nodiscard]] gl::TargetControl control() override {
        return {[this] { ++pauses_; }, [this] { ++resumes_; },
                [this](const gl::StepFilter& f) { steps_.push_back(f.actor); }};
    }

    bool opened_ = false;
    gl::CommandSink* sink_ = nullptr;
    std::uint64_t delivered_ = 0;
    std::uint64_t pauses_ = 0;
    std::uint64_t resumes_ = 0;
    std::vector<std::string> steps_;

private:
    std::vector<gl::Command> script_;
};

// Records every observer callback with a sequence number.
struct RecordingObserver final : gco::EngineObserver {
    struct Event {
        std::string kind;
        gl::Command cmd;
        rt::SimTime t = 0;
    };
    std::vector<Event> events;
    std::vector<int> breakpoint_handles;

    void on_command(const gl::Command& cmd, rt::SimTime t) override {
        events.push_back({"command", cmd, t});
    }
    void on_reaction(const gl::Command& cmd, const gco::ReactionSpec&,
                     rt::SimTime t) override {
        events.push_back({"reaction", cmd, t});
    }
    void on_breakpoint_hit(int handle, const gco::Breakpoint&, const gl::Command& cmd,
                           rt::SimTime t) override {
        breakpoint_handles.push_back(handle);
        events.push_back({"breakpoint", cmd, t});
    }
    void on_divergence(const gco::Divergence& d) override {
        events.push_back({"divergence", d.cmd, d.t});
    }
    void on_state_change(gco::EngineState, gco::EngineState to) override {
        events.push_back({std::string("state:") + gco::to_string(to), {}, 0});
    }
};

TEST(Transport, MockDrivesScriptedCommandsThroughAttach) {
    Demo d;
    gco::DebugSession session(d.sys.model());
    auto mock = std::make_unique<MockTransport>(std::vector<gl::Command>{
        d.enter(d.s_idle), d.fire(d.t_go), d.enter(d.s_run), d.signal(42.5f)});
    auto* raw = mock.get();
    gl::Transport& attached = session.attach(std::move(mock));
    EXPECT_EQ(&attached, raw);
    EXPECT_TRUE(raw->opened_); // attach() opened the transport onto the engine

    raw->poll(session.engine(), 5 * rt::kMs);

    EXPECT_EQ(session.engine().stats().commands, 4u);
    EXPECT_EQ(raw->stats().commands, 4u);
    ASSERT_TRUE(session.engine().current_state(d.sm_id).has_value());
    EXPECT_EQ(*session.engine().current_state(d.sm_id), d.s_run);
    EXPECT_DOUBLE_EQ(*session.engine().signal_value(d.speed), 42.5);
    // Scene animated and trace recorded through the same stream.
    EXPECT_TRUE(session.scene().find_node(d.s_run.raw)->style.highlighted);
    EXPECT_EQ(session.trace().size(), 4u);
    EXPECT_TRUE(session.divergences().empty());
}

TEST(Transport, ControlPathRoutesPauseResumeStep) {
    Demo d;
    gco::DebugSession session(d.sys.model());
    auto mock = std::make_unique<MockTransport>(std::vector<gl::Command>{});
    auto* raw = mock.get();
    session.attach(std::move(mock));
    session.engine().set_step_filter({"ctl"});

    session.engine().add_breakpoint(
        {gco::Breakpoint::Kind::StateEnter, d.s_idle, "", true, false});
    session.engine().ingest(d.enter(d.s_idle), rt::kMs);
    EXPECT_EQ(raw->pauses_, 1u); // breakpoint paused through the transport

    session.engine().step(); // typed StepFilter reaches the transport
    ASSERT_EQ(raw->steps_.size(), 1u);
    EXPECT_EQ(raw->steps_[0], "ctl");

    session.engine().ingest(d.fire(d.t_go), 2 * rt::kMs); // re-pauses after one command
    EXPECT_EQ(raw->pauses_, 2u);
    session.engine().resume();
    EXPECT_EQ(raw->resumes_, 1u);
}

TEST(Transport, ScriptedTransportDeliversByTimestamp) {
    Demo d;
    gco::DebugSession session(d.sys.model());
    auto scripted = std::make_unique<gl::ScriptedTransport>();
    scripted->push(d.enter(d.s_idle), rt::kMs);
    scripted->push(d.fire(d.t_go), 2 * rt::kMs);
    scripted->push(d.enter(d.s_run), 3 * rt::kMs);
    auto* raw = scripted.get();
    session.attach(std::move(scripted));

    raw->poll(session.engine(), rt::kMs);
    EXPECT_EQ(session.trace().size(), 1u); // only events with at <= now
    raw->poll(session.engine(), 10 * rt::kMs);
    EXPECT_EQ(session.trace().size(), 3u);
    EXPECT_EQ(*session.engine().current_state(d.sm_id), d.s_run);
}

TEST(Observer, AllObserversSeeTheSameStreamInOrder) {
    Demo d;
    gco::DebugSession session(d.sys.model());
    auto& rec = static_cast<RecordingObserver&>(
        session.add_observer(std::make_unique<RecordingObserver>()));

    // One-shot breakpoint on entering run.
    int handle = session.engine().add_breakpoint(
        {gco::Breakpoint::Kind::StateEnter, d.s_run, "", true, /*one_shot=*/true});

    session.engine().ingest(d.enter(d.s_idle), 1 * rt::kMs);
    session.engine().ingest(d.fire(d.t_go), 2 * rt::kMs);
    session.engine().ingest(d.enter(d.s_run), 2 * rt::kMs);
    session.engine().ingest(d.enter(d.s_idle), 3 * rt::kMs); // jump run->idle: legal via t_stop

    // The recording observer saw: every command (4), reactions for each
    // bound command, the breakpoint hit, and the FSM state changes.
    std::vector<std::string> kinds;
    for (const auto& ev : rec.events) kinds.push_back(ev.kind);
    std::vector<std::string> expected{
        "command", "state:animating", "reaction", // enter idle
        "command", "reaction",                    // fire t_go
        "command", "reaction", "breakpoint", "state:paused", // enter run + one-shot
        "command", "reaction",                    // enter idle (paused engine still observes)
    };
    EXPECT_EQ(kinds, expected);

    // One-shot auto-removal: hit recorded once, breakpoint gone.
    ASSERT_EQ(rec.breakpoint_handles.size(), 1u);
    EXPECT_EQ(rec.breakpoint_handles[0], handle);
    EXPECT_EQ(session.engine().breakpoints().count(handle), 0u);
    EXPECT_EQ(session.engine().stats().breakpoints_hit, 1u);

    // Trace observer saw exactly the same commands, in the same order.
    ASSERT_EQ(session.trace().size(), 4u);
    std::vector<gl::Command> recorded_cmds;
    for (const auto& ev : rec.events)
        if (ev.kind == "command") recorded_cmds.push_back(ev.cmd);
    ASSERT_EQ(recorded_cmds.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(session.trace().events()[i].cmd, recorded_cmds[i]);

    // Scene observer reacted to the same stream: final highlight = idle.
    EXPECT_TRUE(session.scene().find_node(d.s_idle.raw)->style.highlighted);
    EXPECT_FALSE(session.scene().find_node(d.s_run.raw)->style.highlighted);
    // Divergence observer: clean run.
    EXPECT_TRUE(session.divergences().empty());
}

TEST(Observer, DivergenceReachesRecorderAndLogAlike) {
    Demo d;
    gco::DebugSession session(d.sys.model());
    auto& rec = static_cast<RecordingObserver&>(
        session.add_observer(std::make_unique<RecordingObserver>()));

    session.engine().ingest(d.enter(d.s_run), rt::kMs); // design starts in idle
    ASSERT_EQ(session.divergences().size(), 1u);
    std::size_t divergence_events = 0;
    for (const auto& ev : rec.events)
        if (ev.kind == "divergence") ++divergence_events;
    EXPECT_EQ(divergence_events, 1u);
    EXPECT_EQ(session.engine().stats().divergences, 1u);
}

TEST(Observer, SecondSceneObserverAnimatesTwoScenes) {
    Demo d;
    gco::DebugSession session(d.sys.model());
    // An independently-abstracted second scene (e.g. a second client's
    // view), animated from the same engine event stream.
    auto second = gco::abstract_model(d.sys.model(), gco::comdes_default_mapping());
    session.add_observer(std::make_unique<gco::SceneAnimator>(d.sys.model(), second.scene));

    session.engine().ingest(d.enter(d.s_idle), 1 * rt::kMs);
    session.engine().ingest(d.fire(d.t_go), 2 * rt::kMs);
    session.engine().ingest(d.enter(d.s_run), 2 * rt::kMs);

    for (gmdf::render::Scene* scene : {&session.scene(), &second.scene}) {
        EXPECT_TRUE(scene->find_node(d.s_run.raw)->style.highlighted);
        EXPECT_FALSE(scene->find_node(d.s_idle.raw)->style.highlighted);
        EXPECT_TRUE(scene->find_edge(d.t_go.raw)->style.highlighted);
    }
}

TEST(Observer, RemoveObserverStopsDelivery) {
    Demo d;
    gco::DebuggerEngine engine(d.sys.model());
    RecordingObserver rec;
    engine.add_observer(&rec);
    engine.ingest(d.enter(d.s_idle), rt::kMs);
    std::size_t seen = rec.events.size();
    EXPECT_TRUE(engine.remove_observer(&rec));
    EXPECT_FALSE(engine.remove_observer(&rec));
    engine.ingest(d.fire(d.t_go), 2 * rt::kMs);
    EXPECT_EQ(rec.events.size(), seen);
}

// The Fig. 6 workflow built by hand: settings and observers go in before
// attach(), so nothing the transport emits is missed.
TEST(DirectConstruction, ActiveEndToEnd) {
    Demo d;
    rt::Target target;
    auto loaded = gg::load_system(target, d.sys.model(), gg::InstrumentOptions::active());
    (void)loaded;

    gco::DebugSession session(d.sys.model());
    session.animator().set_highlight_half_life(50 * rt::kMs);
    session.engine().set_step_filter({"ctl"});
    session.engine().add_breakpoint(
        {gco::Breakpoint::Kind::StateEnter, d.s_run, "", true, /*one_shot=*/true});
    auto rec = std::make_unique<RecordingObserver>();
    auto* rec_raw = rec.get();
    session.add_observer(std::move(rec));
    session.attach(gco::make_active_uart_transport(target));

    target.start();
    target.run_for(200 * rt::kMs);

    EXPECT_EQ(session.transports().size(), 1u);
    EXPECT_STREQ(session.transports()[0]->name(), "active-uart");
    EXPECT_GT(session.engine().stats().commands, 0u);
    EXPECT_FALSE(rec_raw->events.empty());
    // The breakpoint fired (machine enters run on the first scan) and
    // paused the simulated target through the transport's control path.
    EXPECT_EQ(session.engine().stats().breakpoints_hit, 1u);
    EXPECT_EQ(session.engine().state(), gco::EngineState::Paused);
    EXPECT_TRUE(target.paused());
    EXPECT_EQ(session.engine().step_filter().actor, "ctl");
    EXPECT_EQ(session.divergences().size(), 0u);
}

TEST(DirectConstruction, PassiveJtag) {
    Demo d;
    rt::Target target;
    auto loaded = gg::load_system(target, d.sys.model(), gg::InstrumentOptions::passive());
    gco::DebugSession session(d.sys.model());
    session.attach(gco::make_passive_jtag_transport(target, loaded, d.sys.model(),
                                                    2 * rt::kMs));
    target.start();
    target.run_for(200 * rt::kMs);

    EXPECT_EQ(target.total_instr_cycles(), 0u); // passive stays free
    EXPECT_STREQ(session.transports()[0]->name(), "passive-jtag");
    EXPECT_GT(session.transports()[0]->stats().polls, 0u);
    ASSERT_TRUE(session.engine().current_state(d.sm_id).has_value());
}

} // namespace
