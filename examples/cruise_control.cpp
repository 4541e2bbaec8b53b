// Cruise control — modal FB + PID dataflow, with a signal-predicate
// breakpoint and VCD export of the recorded trace.
//
// The controller is a modal FB: mode 0 = coasting (output 0), mode 1 =
// cruising (PID holds the speed setpoint against a simulated vehicle).
// The debugger watches the speed and breaks when it overshoots.
#include <fstream>
#include <iostream>

#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "comdes/metamodel.hpp"
#include "comdes/validate.hpp"
#include "core/session.hpp"
#include "core/transports.hpp"

using namespace gmdf;

namespace {

// Builds a modal FB with coast/cruise modes around a PID.
meta::ObjectId build_modal(comdes::SystemBuilder& sys, comdes::ActorBuilder& actor) {
    const auto& c = comdes::comdes_metamodel();
    auto& m = sys.model();
    auto& modal = m.create(*c.modal_fb);
    modal.set_attr("name", meta::Value("cruise"));
    modal.set_attr("selector_pin", meta::Value("mode"));

    auto add_map = [&](meta::MObject& mode, const char* outer, const char* fb,
                       const char* pin, const char* dir) {
        auto& pm = m.create(*c.port_map);
        pm.set_attr("outer_pin", meta::Value(outer));
        pm.set_attr("inner_fb", meta::Value(fb));
        pm.set_attr("inner_pin", meta::Value(pin));
        pm.set_attr("direction", meta::Value(dir));
        mode.add_ref("port_maps", pm.id());
    };

    // Mode 0: coast — throttle forced to zero.
    auto& coast = m.create(*c.mode);
    coast.set_attr("name", meta::Value("coast"));
    coast.set_attr("value", meta::Value(0));
    auto& coast_net = m.create(*c.network);
    coast.set_ref("network", coast_net.id());
    auto& zero = m.create(*c.basic_fb);
    zero.set_attr("name", meta::Value("zero"));
    zero.set_attr("kind", meta::Value("const_"));
    zero.set_attr("params", meta::Value(meta::Value::List{meta::Value(0.0)}));
    coast_net.add_ref("blocks", zero.id());
    add_map(coast, "throttle", "zero", "out", "out");
    modal.add_ref("modes", coast.id());

    // Mode 1: cruise — PID from setpoint/speed to throttle.
    auto& cruise = m.create(*c.mode);
    cruise.set_attr("name", meta::Value("cruise_on"));
    cruise.set_attr("value", meta::Value(1));
    auto& cruise_net = m.create(*c.network);
    cruise.set_ref("network", cruise_net.id());
    auto& pid = m.create(*c.basic_fb);
    pid.set_attr("name", meta::Value("pid"));
    pid.set_attr("kind", meta::Value("pid_"));
    pid.set_attr("params",
                 meta::Value(meta::Value::List{meta::Value(0.8), meta::Value(0.4),
                                               meta::Value(0.0), meta::Value(0.0),
                                               meta::Value(1.0)}));
    cruise_net.add_ref("blocks", pid.id());
    add_map(cruise, "setpoint", "pid", "sp", "in");
    add_map(cruise, "speed", "pid", "pv", "in");
    add_map(cruise, "throttle", "pid", "out", "out");
    modal.add_ref("modes", cruise.id());

    m.at(actor.network_id()).add_ref("blocks", modal.id());
    return modal.id();
}

} // namespace

int main() {
    comdes::SystemBuilder sys("cruise_system");
    auto sp = sys.add_signal("setpoint", "real_", 25.0);
    auto speed = sys.add_signal("speed", "real_", 0.0);
    auto mode = sys.add_signal("mode", "int_", 0.0);
    auto throttle = sys.add_signal("throttle", "real_", 0.0);

    auto actor = sys.add_actor("cruise_ctl", 20'000); // 50 Hz
    auto modal_id = build_modal(sys, actor);
    actor.bind_input(mode, modal_id, "mode");
    actor.bind_input(sp, modal_id, "setpoint");
    actor.bind_input(speed, modal_id, "speed");
    actor.bind_output(modal_id, "throttle", throttle);

    auto ds = comdes::validate_comdes(sys.model());
    if (!meta::is_clean(ds)) {
        for (const auto& d : ds) std::cerr << d.to_string() << "\n";
        return 1;
    }

    rt::Target target;
    auto loaded = codegen::load_system(target, sys.model(),
                                       codegen::InstrumentOptions::active());

    core::DebugSession session(sys.model());
    session.attach(core::make_active_uart_transport(target));
    // Break when the measured speed exceeds the setpoint by 10%.
    session.engine().add_breakpoint(
        {core::Breakpoint::Kind::SignalPredicate, {}, "speed > 27.5", true, true});

    // Simulated vehicle: first-order response to throttle, sampled at 50 Hz.
    double vehicle_speed = 0.0;
    target.sim().every(20 * rt::kMs, 20 * rt::kMs, [&] {
        double u = target.node(0).signal(loaded.signal_index.at(throttle.raw));
        vehicle_speed += (40.0 * u - vehicle_speed) * 0.02 / 1.5; // tau = 1.5 s
        target.node(0).publish_signal(loaded.signal_index.at(speed.raw), vehicle_speed);
    });

    target.start();
    // Engage cruise after 0.5 s.
    target.sim().at(500 * rt::kMs, [&] {
        target.node(0).publish_signal(loaded.signal_index.at(mode.raw), 1.0);
    });
    target.run_for(10 * rt::kSec);

    std::cout << "mode changes observed: "
              << session.trace().filter(link::Cmd::ModeChange).size() << "\n";
    std::cout << "final speed: " << vehicle_speed << " (setpoint 25)\n";
    std::cout << "breakpoint hits (overshoot): " << session.engine().stats().breakpoints_hit
              << "\n";
    if (session.engine().state() == core::EngineState::Paused) {
        std::cout << "target halted on overshoot (engine "
                  << core::to_string(session.engine().state()) << "); resuming...\n";
        session.engine().resume();
        target.run_for(5 * rt::kSec);
        std::cout << "settled speed: " << vehicle_speed << "\n";
    }

    std::cout << "\n=== timing diagram ===\n";
    std::cout << session.timing_diagram().render_ascii(64) << "\n";

    std::ofstream vcd_file("cruise_trace.vcd");
    vcd_file << session.vcd();
    std::cout << "trace exported to cruise_trace.vcd ("
              << session.trace().size() << " events)\n";
    return 0;
}
