// Quickstart: the whole GMDF workflow on a blinker state machine.
//
//   model -> validate -> abstraction (GDM) -> code generation ->
//   simulated target -> active debugging -> animation + trace replay.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "comdes/validate.hpp"
#include "core/session.hpp"
#include "core/transports.hpp"

using namespace gmdf;

int main() {
    // 1. Model a blinker: a state machine toggling a LED signal every scan.
    comdes::SystemBuilder sys("blinker_system");
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

    // 2. Validate the design model.
    auto diagnostics = comdes::validate_comdes(sys.model());
    if (!meta::is_clean(diagnostics)) {
        for (const auto& d : diagnostics) std::cerr << d.to_string() << "\n";
        return 1;
    }
    std::cout << "model validates: " << sys.model().size() << " elements\n";

    // 3. Generate + load the executable code (active command interface).
    rt::Target target;
    auto loaded = codegen::load_system(target, sys.model(),
                                       codegen::InstrumentOptions::active());

    // 4. The debug session abstracts the model into a GDM automatically
    //    (default mapping and bindings); attach the target over the active
    //    command interface.
    core::DebugSession session(sys.model());
    session.attach(core::make_active_uart_transport(target));
    std::cout << "GDM generated: " << session.abstraction().mapped_nodes << " nodes, "
              << session.abstraction().mapped_edges << " edges\n";
    std::cout << "transport: " << session.transports().front()->name() << "\n\n";

    // 5. Run for one second of simulated time and animate.
    target.start();
    target.run_for(1050 * rt::kMs);

    std::cout << "=== final animation frame (state '"
              << (session.engine().current_state(sm.sm_id())
                      ? sys.model().at(*session.engine().current_state(sm.sm_id())).name()
                      : "?")
              << "' highlighted) ===\n";
    std::cout << session.render_ascii() << "\n";

    // 6. Trace products: timing diagram + replay.
    std::cout << "=== timing diagram ===\n";
    std::cout << session.timing_diagram().render_ascii(64) << "\n";

    auto frames = session.replay_frames(/*stride=*/8);
    std::cout << "replay produced " << frames.size() << " frames, deterministic re-animation\n";
    std::cout << "commands observed: " << session.engine().stats().commands
              << ", reactions: " << session.engine().stats().reactions
              << ", divergences: " << session.divergences().size() << "\n";
    std::cout << "same workflow, scripted: ./build/gmdf_dbg --script examples/quickstart.gds\n";
    (void)led;
    (void)loaded;
    return 0;
}
