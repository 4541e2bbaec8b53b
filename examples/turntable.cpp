// Turntable control — the COMDES production-cell demo, distributed over
// two nodes, debugged actively with a model-level breakpoint and
// step-wise execution.
//
// Node 0 runs the controller actor (state machine sequencing the drill
// cycle); node 1 runs the drive actor (dataflow: ramped motor command).
// The debugger pauses the whole target when the machine enters
// 'drilling', then steps release-by-release — exactly the paper's
// "model-level step-wise execution and breakpoint functionality".
#include <iostream>

#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "comdes/validate.hpp"
#include "core/session.hpp"
#include "core/transports.hpp"

using namespace gmdf;

int main() {
    comdes::SystemBuilder sys("turntable");
    auto part_present = sys.add_signal("part_present", "bool_");
    auto at_position = sys.add_signal("at_position", "bool_");
    auto rotate_cmd = sys.add_signal("rotate_cmd", "real_");
    auto drill_cmd = sys.add_signal("drill_cmd", "bool_");
    auto motor = sys.add_signal("motor", "real_");

    // Controller actor (node 0): sequencing state machine.
    auto ctl = sys.add_actor("controller", 20'000, 0, /*node=*/0);
    auto sm = ctl.add_sm("sequencer", {"part", "in_pos"}, {"rotate", "drill"});
    auto s_idle = sm.add_state("idle", {{"rotate", "0"}, {"drill", "0"}});
    auto s_rotating = sm.add_state("rotating", {{"rotate", "0.8"}});
    auto s_drilling = sm.add_state("drilling", {{"rotate", "0"}, {"drill", "1"}});
    auto s_retract = sm.add_state("retracting", {{"drill", "0"}});
    sm.add_transition(s_idle, s_rotating, "part");
    sm.add_transition(s_rotating, s_drilling, "in_pos");
    auto t_done = sm.add_transition(s_drilling, s_retract); // unconditional: next scan
    sm.add_transition(s_retract, s_idle, "", "!part");
    ctl.bind_input(part_present, sm.sm_id(), "part");
    ctl.bind_input(at_position, sm.sm_id(), "in_pos");
    ctl.bind_output(sm.sm_id(), "rotate", rotate_cmd);
    ctl.bind_output(sm.sm_id(), "drill", drill_cmd);

    // Drive actor (node 1): slew-rate-limited motor command.
    auto drive = sys.add_actor("drive", 10'000, 0, /*node=*/1);
    auto ramp = drive.add_basic("ramp", "ratelimit_", {2.0}); // 2 units/s
    drive.bind_input(rotate_cmd, ramp, "in");
    drive.bind_output(ramp, "out", motor);

    auto ds = comdes::validate_comdes(sys.model());
    if (!meta::is_clean(ds)) {
        for (const auto& d : ds) std::cerr << d.to_string() << "\n";
        return 1;
    }

    rt::Target target;
    target.set_network_latency(500 * rt::kUs);
    auto loaded = codegen::load_system(target, sys.model(),
                                       codegen::InstrumentOptions::active());

    core::DebugSession session(sys.model());
    session.attach(core::make_active_uart_transport(target));
    session.engine().set_step_filter({"controller"}); // step = one controller activation

    // Model-level breakpoint: pause everything when drilling starts.
    session.engine().add_breakpoint(
        {core::Breakpoint::Kind::StateEnter, s_drilling, "", true, false});

    target.start();
    // Environment: a part arrives, then the table reaches position.
    target.sim().at(50 * rt::kMs, [&] {
        target.node(0).publish_signal(loaded.signal_index.at(part_present.raw), 1.0);
    });
    target.sim().at(200 * rt::kMs, [&] {
        target.node(0).publish_signal(loaded.signal_index.at(at_position.raw), 1.0);
    });

    target.run_for(400 * rt::kMs);

    std::cout << "=== breakpoint hit: target halted in state 'drilling' ===\n";
    std::cout << "engine state: " << core::to_string(session.engine().state())
              << ", target paused: " << (target.paused() ? "yes" : "no") << "\n";
    std::cout << session.render_ascii() << "\n";

    // Step-wise execution: three single task releases (the engine call
    // the `step` verb of gmdf_dbg makes too).
    for (int i = 0; i < 3; ++i) {
        session.engine().step();
        target.run_for(100 * rt::kMs);
        auto cur = session.engine().current_state(sm.sm_id());
        std::cout << "after step " << i + 1 << ": state '"
                  << (cur ? sys.model().at(*cur).name() : "?") << "'\n";
    }

    session.engine().resume();
    target.run_for(300 * rt::kMs);

    std::cout << "\n=== timing diagram (controller + signals) ===\n";
    std::cout << session.timing_diagram().render_ascii(64) << "\n";
    std::cout << "motor command at node 1: "
              << target.node(1).signal(loaded.signal_index.at(motor.raw)) << "\n";
    std::cout << "divergences: " << session.divergences().size()
              << " (clean run)\n";
    (void)t_done;
    return 0;
}
