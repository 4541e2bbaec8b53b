// Self-contained demo scenarios the protocol layer can drive.
//
// Each scenario bundles a COMDES design model, a simulated target with
// the generated code loaded (active command interface), a DebugSession
// attached over UART, its timeline, and the protocol controller driving
// that session. Scenario::advance alone moves the session's clock: the
// `run` verb, every hub pump slice and the campaign twins call it.
// gmdf_dbg serves these from the command line; the golden-transcript
// tests run the same objects in-process, so the CLI and the test
// fixtures cannot diverge.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/generator.hpp"
#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "core/session.hpp"
#include "proto/controller.hpp"
#include "replay/timeline.hpp"
#include "rt/target.hpp"

namespace gmdf::proto {

/// One ready-to-drive debug scenario. Construction order matters: the
/// model outlives the session, the target outlives its transport, and
/// the controller unsubscribes from the session's engine before the
/// session goes.
struct Scenario {
    /// A scheduled environment stimulus (applied through the target's
    /// rewind-safe publish path once the system is loaded).
    struct Stimulus {
        meta::ObjectId signal;
        double value = 0.0;
        rt::SimTime at = 0;
        int node = 0;
    };

    std::string name;
    comdes::SystemBuilder sys;
    rt::Target target;
    codegen::LoadedSystem loaded;
    std::vector<Stimulus> stimuli;
    /// Fault scenarios generate code from a mutated clone while the
    /// debugger keeps sys.model() as the design (null otherwise).
    std::unique_ptr<meta::Model> mutated;
    std::unique_ptr<core::DebugSession> session;
    /// Time-travel navigation (checkpoint/rewind/step-back/bisect);
    /// attached by wire_scenario.
    std::unique_ptr<replay::Timeline> timeline;

    explicit Scenario(std::string scenario_name)
        : name(std::move(scenario_name)), sys(name + "_system") {}

    // Neither copyable nor movable: the controller's run hook points here.
    Scenario(const Scenario&) = delete;
    Scenario& operator=(const Scenario&) = delete;

    /// Runs the timeline (which takes the cadence checkpoints) or, with
    /// none, the bare target by `duration`, then polls every transport at
    /// the new clock. Throws what the target throws.
    void advance(rt::SimTime duration);

    /// The controller over `session`, built on first call with `timeline`
    /// attached and its run hook bound to advance(). Set both first.
    [[nodiscard]] SessionController& controller();

private:
    // Declared after session: its destructor unsubscribes from the engine.
    std::unique_ptr<SessionController> controller_;
};

/// Names servable by make_scenario, in listing order.
[[nodiscard]] std::vector<std::string> scenario_names();

/// Builds a scenario by name ("blinker": the quickstart toggler;
/// "turntable": the two-node production cell with scheduled stimuli;
/// "lift_fault": an elevator controller whose generated code carries an
/// injected wrong-transition-target fault — the bisect demo).
/// Two parameterized families extend the fixed names:
///   "lift_fault:<fault-kind>"  the elevator with any codegen::FaultKind
///                              injected (kebab-case kind names);
///   "gen:<seed>[:<fault-kind>]" a campaign-generated random model,
///                              optionally with an injected fault.
/// Returns null for unknown names, unknown fault kinds, and faults
/// inapplicable to the model. The target is started; drive it with the
/// `run` verb.
[[nodiscard]] std::unique_ptr<Scenario> make_scenario(std::string_view name);

/// Generates campaign model `seed` into the freshly constructed `s`: the
/// design model, the network latency a multi-node model runs with, and
/// its environment stimuli. make_scenario's "gen:" family and the
/// campaign runner share it.
void generate_scenario(Scenario& s, const campaign::GenSpec& spec, std::uint32_t seed);

/// Whether the scenario's design model passes COMDES validation. Run it
/// before wire_scenario.
[[nodiscard]] bool validate_scenario(const Scenario& s);

/// Wires an externally built, validated scenario (sys + stimuli
/// populated, mutated optionally set): loads the generated code (from
/// `mutated` when set — the injected-fault twin — else the design) onto
/// the target, builds the session over the active command interface,
/// schedules the stimuli through the rewind-safe publish path, attaches
/// a replay::Timeline, and starts the target; no controller, so headless
/// twins carry none. The campaign runner and make_scenario share this.
void wire_scenario(Scenario& s);

} // namespace gmdf::proto
