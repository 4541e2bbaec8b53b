#include "proto/scenarios.hpp"

#include <cstdint>
#include <limits>
#include <optional>

#include "codegen/faults.hpp"
#include "comdes/validate.hpp"
#include "core/transports.hpp"
#include "meta/diagnostics.hpp"

namespace gmdf::proto {

namespace {

// The quickstart blinker: one actor, a two-state toggler driving a LED.
void build_blinker(comdes::SystemBuilder& sys) {
    auto led = sys.add_signal("led", "bool_");
    auto actor = sys.add_actor("blinker", /*period_us=*/100'000); // 10 Hz
    auto sm = actor.add_sm("toggler", {"tick"}, {"out"});
    auto off = sm.add_state("off", {{"out", "0"}});
    auto on = sm.add_state("on", {{"out", "1"}});
    sm.add_transition(off, on, "tick");
    sm.add_transition(on, off, "tick");
    auto one = actor.add_basic("one", "const_", {1.0});
    actor.connect(one, "out", sm.sm_id(), "tick");
    actor.bind_output(sm.sm_id(), "out", led);
}

// The two-node production cell: sequencing SM on node 0, motor ramp on
// node 1, with the part/position stimuli scheduled on the target clock.
void build_turntable(Scenario& s) {
    auto& sys = s.sys;
    auto part_present = sys.add_signal("part_present", "bool_");
    auto at_position = sys.add_signal("at_position", "bool_");
    auto rotate_cmd = sys.add_signal("rotate_cmd", "real_");
    auto drill_cmd = sys.add_signal("drill_cmd", "bool_");
    auto motor = sys.add_signal("motor", "real_");

    auto ctl = sys.add_actor("controller", 20'000, 0, /*node=*/0);
    auto sm = ctl.add_sm("sequencer", {"part", "in_pos"}, {"rotate", "drill"});
    auto s_idle = sm.add_state("idle", {{"rotate", "0"}, {"drill", "0"}});
    auto s_rotating = sm.add_state("rotating", {{"rotate", "0.8"}});
    auto s_drilling = sm.add_state("drilling", {{"rotate", "0"}, {"drill", "1"}});
    auto s_retract = sm.add_state("retracting", {{"drill", "0"}});
    sm.add_transition(s_idle, s_rotating, "part");
    sm.add_transition(s_rotating, s_drilling, "in_pos");
    sm.add_transition(s_drilling, s_retract);
    sm.add_transition(s_retract, s_idle, "", "!part");
    ctl.bind_input(part_present, sm.sm_id(), "part");
    ctl.bind_input(at_position, sm.sm_id(), "in_pos");
    ctl.bind_output(sm.sm_id(), "rotate", rotate_cmd);
    ctl.bind_output(sm.sm_id(), "drill", drill_cmd);

    auto drive = sys.add_actor("drive", 10'000, 0, /*node=*/1);
    auto ramp = drive.add_basic("ramp", "ratelimit_", {2.0});
    drive.bind_input(rotate_cmd, ramp, "in");
    drive.bind_output(ramp, "out", motor);

    s.target.set_network_latency(500 * rt::kUs);
    // Environment: a part arrives, then the table reaches position.
    // Declared data-only; make_scenario schedules them through the
    // target's rewind-safe publish path once the system is loaded.
    s.stimuli.push_back({part_present, 1.0, 50 * rt::kMs, 0});
    s.stimuli.push_back({at_position, 1.0, 200 * rt::kMs, 0});
}

// The elevator controller from the fault-hunt study. The debugger keeps
// this design model; the generated code comes from a mutated clone (a
// wrong-transition-target fault), so the consistency checker trips at
// runtime — the scenario behind the `bisect` golden workflow.
void build_lift(Scenario& s) {
    auto& sys = s.sys;
    auto call_sig = sys.add_signal("call", "bool_");
    auto at_floor = sys.add_signal("at_floor", "bool_");
    auto door_sig = sys.add_signal("door", "real_");
    auto a = sys.add_actor("elevator_ctl", 10'000);
    auto sm = a.add_sm("lift", {"call", "arrived"}, {"move", "door"});
    auto idle = sm.add_state("idle", {{"move", "0"}, {"door", "1"}});
    auto moving = sm.add_state("moving", {{"move", "1"}, {"door", "0"}});
    auto open = sm.add_state("doors_open", {{"move", "0"}, {"door", "1"}});
    sm.add_transition(idle, moving, "call", "!arrived");
    sm.add_transition(moving, open, "arrived");
    sm.add_transition(open, idle, "", "!call");
    a.bind_input(call_sig, sm.sm_id(), "call");
    a.bind_input(at_floor, sm.sm_id(), "arrived");
    a.bind_output(sm.sm_id(), "door", door_sig);

    // Exercise the elevator: call, arrive, release.
    s.stimuli.push_back({call_sig, 1.0, 50 * rt::kMs, 0});
    s.stimuli.push_back({at_floor, 1.0, 200 * rt::kMs, 0});
    s.stimuli.push_back({call_sig, 0.0, 350 * rt::kMs, 0});
    s.stimuli.push_back({at_floor, 0.0, 360 * rt::kMs, 0});
}

} // namespace

void Scenario::advance(rt::SimTime duration) {
    if (timeline != nullptr)
        timeline->advance(duration);
    else
        target.run_for(duration);
    const rt::SimTime now = target.sim().now();
    for (const auto& transport : session->transports())
        transport->poll(session->engine(), now);
}

SessionController& Scenario::controller() {
    if (controller_ == nullptr) {
        controller_ = std::make_unique<SessionController>(*session);
        controller_->set_timeline(timeline.get());
        controller_->set_run_hook([this](rt::SimTime duration) { advance(duration); });
    }
    return *controller_;
}

std::vector<std::string> scenario_names() {
    return {"blinker", "turntable", "lift_fault"};
}

void generate_scenario(Scenario& s, const campaign::GenSpec& spec, std::uint32_t seed) {
    campaign::GeneratedSystem gen = campaign::generate_system(s.sys, spec, seed);
    if (gen.nodes > 1) s.target.set_network_latency(500 * rt::kUs);
    for (const campaign::GenStimulus& st : gen.stimuli)
        s.stimuli.push_back({st.signal, st.value, st.at, st.node});
}

bool validate_scenario(const Scenario& s) {
    return meta::is_clean(comdes::validate_comdes(s.sys.model()));
}

void wire_scenario(Scenario& s) {
    // Fault scenarios generate code from a mutated clone of the design
    // (emulating a model-transformation bug, codegen/faults); the
    // debugger keeps sys.model() as the design.
    const meta::Model* generated = s.mutated ? s.mutated.get() : &s.sys.model();
    s.loaded = codegen::load_system(s.target, *generated,
                                    codegen::InstrumentOptions::active());
    s.session = std::make_unique<core::DebugSession>(s.sys.model());
    s.session->attach(core::make_active_uart_transport(s.target));
    for (const Scenario::Stimulus& st : s.stimuli)
        s.target.schedule_publish(st.at, st.node,
                                  s.loaded.signal_index.at(st.signal.raw), st.value);
    s.timeline = std::make_unique<replay::Timeline>(s.target, *s.session);
    s.target.start();
}

std::unique_ptr<Scenario> make_scenario(std::string_view name) {
    auto scenario = std::make_unique<Scenario>(std::string(name));
    std::optional<codegen::FaultKind> fault;

    if (name == "blinker") {
        build_blinker(scenario->sys);
    } else if (name == "turntable") {
        build_turntable(*scenario);
    } else if (name == "lift_fault") {
        build_lift(*scenario);
        fault = codegen::FaultKind::WrongTransitionTarget;
    } else if (name.rfind("lift_fault:", 0) == 0) {
        fault = codegen::fault_kind_from_string(name.substr(11));
        if (!fault.has_value()) return nullptr;
        build_lift(*scenario);
    } else if (name.rfind("gen:", 0) == 0) {
        // "gen:<seed>[:<fault-kind>]" — a campaign-generated model.
        std::string_view rest = name.substr(4);
        std::string_view seed_text = rest;
        if (auto colon = rest.find(':'); colon != std::string_view::npos) {
            seed_text = rest.substr(0, colon);
            fault = codegen::fault_kind_from_string(rest.substr(colon + 1));
            if (!fault.has_value()) return nullptr;
        }
        auto seed = parse_u64(seed_text);
        if (!seed.has_value() || *seed > std::numeric_limits<std::uint32_t>::max())
            return nullptr;
        generate_scenario(*scenario, campaign::GenSpec{},
                          static_cast<std::uint32_t>(*seed));
    } else {
        return nullptr;
    }

    if (fault.has_value()) {
        scenario->mutated =
            std::make_unique<meta::Model>(scenario->sys.model().clone());
        if (!codegen::inject_fault(*scenario->mutated, *fault, /*seed=*/23)
                 .has_value())
            return nullptr;
    }
    if (!validate_scenario(*scenario)) return nullptr;
    wire_scenario(*scenario);
    return scenario;
}

} // namespace gmdf::proto
