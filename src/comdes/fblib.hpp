// Prefabricated function-block library: pin metadata and executable kernels.
//
// COMDES configures actors from reusable components. Each BasicFB kind has
// a fixed pin interface and a kernel implementing its step semantics; the
// StateMachineFB kernel interprets a compiled transition table and reports
// state changes to an observer (the hook the model debugger attaches to).
//
// Pin values are doubles everywhere at runtime (booleans are 0.0 / 1.0,
// matching the generated C code); signal types are enforced at model level.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "meta/model.hpp"

namespace gmdf::comdes {

/// Literals of the BasicKind enum, in declaration order. Parameter layout
/// (the `params` list attribute) per kind:
///   const_       [value]
///   gain_        [k]
///   offset_      [b]
///   add_ sub_ mul_ div_ min_ max_   (no params; pins in1, in2)
///   abs_ not_    (no params; pin in)
///   and_ or_ xor_                  (no params; pins in1, in2)
///   gt_ ge_ lt_ le_               [threshold] (pin in; out is 0/1)
///   hysteresis_  [lo, hi]          (Schmitt trigger; out latches)
///   limit_       [lo, hi]
///   deadband_    [half_width]
///   integrator_  [k, y0]           (y += k * in * dt, reset to y0)
///   derivative_  [k]
///   lowpass_     [tau_s]           (first-order lag)
///   ratelimit_   [rate_per_s]
///   delay_       [n_samples]
///   counter_     [limit]           (pins inc, reset; counts rising edges)
///   sample_hold_ (pins in, gate)
///   pid_         [kp, ki, kd, out_lo, out_hi] (pins sp, pv)
///   expression_  (expr attribute; input pins = its free variables)
[[nodiscard]] std::vector<std::string> basic_kind_names();

/// Pin interface of a function block.
struct FBPins {
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;

    [[nodiscard]] int input_index(std::string_view name) const;
    [[nodiscard]] int output_index(std::string_view name) const;
};

/// Pin interface for any FunctionBlock model object (BasicFB by kind table,
/// CompositeFB/Mode by port maps, ModalFB by union of modes + selector,
/// StateMachineFB by declared inputs/outputs plus the implicit "state"
/// output carrying the current state index).
/// Throws std::invalid_argument for malformed blocks.
[[nodiscard]] FBPins pins_of(const meta::Model& model, const meta::MObject& fb);

/// Observer for state-machine kernels; the debugger's event source.
class SmObserver {
public:
    virtual ~SmObserver() = default;
    virtual void on_state_enter(meta::ObjectId sm, meta::ObjectId state) = 0;
    virtual void on_transition(meta::ObjectId sm, meta::ObjectId transition) = 0;
};

/// Executable kernel of one function block instance. Kernels hold the
/// block's internal state (integrators, delay lines, current SM state).
class FBKernel {
public:
    virtual ~FBKernel() = default;

    /// Re-establishes the initial state.
    virtual void reset() = 0;

    /// One synchronous evaluation: reads `in`, writes `out`. `dt` is the
    /// actor period in seconds (clocked synchronous execution).
    virtual void step(std::span<const double> in, std::span<double> out, double dt) = 0;

    /// Estimated cost in target CPU cycles per step (drives the simulated
    /// CPU model; calibrated to small-MCU magnitudes).
    [[nodiscard]] virtual std::uint32_t cost_cycles() const = 0;

    /// Two-phase kernels (delay_) publish outputs from internal state
    /// before the scan and capture inputs after it, which is what makes
    /// feedback cycles through them well-defined (unit-delay semantics:
    /// out(k) = in(k-1)). step() remains equivalent to publish-then-
    /// capture for standalone use.
    [[nodiscard]] virtual bool is_two_phase() const { return false; }
    virtual void publish(std::span<double> out) { (void)out; }
    virtual void capture(std::span<const double> in) { (void)in; }

    /// Checkpoint support (gmdf::replay): appends the kernel's mutable
    /// state as doubles, bit-exact (integers and booleans widen
    /// losslessly into the double payload). Pure virtual, so no kernel
    /// drops out of a checkpoint by inheriting a no-op: a stateless one
    /// says so in its own override.
    virtual void save_state(std::vector<double>& out) const = 0;

    /// Restores what save_state wrote; returns the number of values
    /// consumed from the front of `in`.
    virtual std::size_t load_state(std::span<const double> in) = 0;
};

/// Builds the kernel for a BasicFB model object; throws on unknown kind,
/// bad parameter count, or (for expression_) a malformed expression.
[[nodiscard]] std::unique_ptr<FBKernel> make_basic_kernel(const meta::MObject& fb);

/// Builds the kernel for a StateMachineFB. Guards/actions are compiled
/// once. The observer may be null (no reporting); it must outlive the
/// kernel. The kernel's input span order matches pins_of().inputs, output
/// span order matches pins_of().outputs (last output = state index).
[[nodiscard]] std::unique_ptr<FBKernel> make_sm_kernel(const meta::Model& model,
                                                       const meta::MObject& sm_fb,
                                                       SmObserver* observer);

} // namespace gmdf::comdes
