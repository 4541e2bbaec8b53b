#include "comdes/fblib.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "comdes/metamodel.hpp"
#include "expr/compile.hpp"
#include "expr/eval.hpp"
#include "expr/parser.hpp"

namespace gmdf::comdes {

namespace {

bool truthy(double v) { return v > 0.5; }

struct KindInfo {
    const char* name;
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
    std::size_t n_params;
    std::uint32_t cost;
};

const std::vector<KindInfo>& kind_table() {
    static const std::vector<KindInfo> table = {
        {"const_", {}, {"out"}, 1, 4},
        {"gain_", {"in"}, {"out"}, 1, 8},
        {"offset_", {"in"}, {"out"}, 1, 8},
        {"add_", {"in1", "in2"}, {"out"}, 0, 8},
        {"sub_", {"in1", "in2"}, {"out"}, 0, 8},
        {"mul_", {"in1", "in2"}, {"out"}, 0, 10},
        {"div_", {"in1", "in2"}, {"out"}, 0, 24},
        {"min_", {"in1", "in2"}, {"out"}, 0, 10},
        {"max_", {"in1", "in2"}, {"out"}, 0, 10},
        {"abs_", {"in"}, {"out"}, 0, 8},
        {"not_", {"in"}, {"out"}, 0, 6},
        {"and_", {"in1", "in2"}, {"out"}, 0, 8},
        {"or_", {"in1", "in2"}, {"out"}, 0, 8},
        {"xor_", {"in1", "in2"}, {"out"}, 0, 8},
        {"gt_", {"in"}, {"out"}, 1, 8},
        {"ge_", {"in"}, {"out"}, 1, 8},
        {"lt_", {"in"}, {"out"}, 1, 8},
        {"le_", {"in"}, {"out"}, 1, 8},
        {"hysteresis_", {"in"}, {"out"}, 2, 12},
        {"limit_", {"in"}, {"out"}, 2, 12},
        {"deadband_", {"in"}, {"out"}, 1, 10},
        {"integrator_", {"in"}, {"out"}, 2, 16},
        {"derivative_", {"in"}, {"out"}, 1, 16},
        {"lowpass_", {"in"}, {"out"}, 1, 20},
        {"ratelimit_", {"in"}, {"out"}, 1, 16},
        {"delay_", {"in"}, {"out"}, 1, 12},
        {"counter_", {"inc", "reset"}, {"out"}, 1, 12},
        {"sample_hold_", {"in", "gate"}, {"out"}, 0, 8},
        {"pid_", {"sp", "pv"}, {"out"}, 5, 60},
        {"expression_", {}, {"out"}, 0, 0}, // pins/cost resolved per instance
    };
    return table;
}

const KindInfo& kind_info(std::string_view kind) {
    for (const auto& k : kind_table())
        if (kind == k.name) return k;
    throw std::invalid_argument("unknown BasicFB kind '" + std::string(kind) + "'");
}

std::vector<double> params_of(const meta::MObject& fb) {
    const meta::Value& v = fb.attr("params");
    std::vector<double> out;
    if (v.is_list())
        for (const auto& e : v.as_list()) out.push_back(e.as_number());
    return out;
}

/// Kernel for every BasicFB kind except expression_.
class BasicKernel final : public FBKernel {
public:
    BasicKernel(std::string kind, std::vector<double> params, std::uint32_t cost)
        : kind_(std::move(kind)), p_(std::move(params)), cost_(cost) {
        reset();
    }

    void reset() override {
        state_ = 0.0;
        prev_ = 0.0;
        integ_ = 0.0;
        initialized_ = false;
        if (kind_ == "integrator_") state_ = p_[1];
        if (kind_ == "delay_") {
            buf_.assign(std::max<std::size_t>(1, static_cast<std::size_t>(p_[0])), 0.0);
            head_ = 0;
        }
    }

    void step(std::span<const double> in, std::span<double> out, double dt) override {
        auto x = [&](std::size_t i) { return in[i]; };
        double& y = out[0];
        // Saturations are min(max(v, lo), hi), never std::clamp: parameters
        // can arrive with lo > hi (FlipParamSign negates ratelimit_'s step),
        // which std::clamp leaves undefined.
        if (kind_ == "const_") y = p_[0];
        else if (kind_ == "gain_") y = p_[0] * x(0);
        else if (kind_ == "offset_") y = p_[0] + x(0);
        else if (kind_ == "add_") y = x(0) + x(1);
        else if (kind_ == "sub_") y = x(0) - x(1);
        else if (kind_ == "mul_") y = x(0) * x(1);
        else if (kind_ == "div_") y = x(1) == 0.0 ? 0.0 : x(0) / x(1);
        else if (kind_ == "min_") y = std::min(x(0), x(1));
        else if (kind_ == "max_") y = std::max(x(0), x(1));
        else if (kind_ == "abs_") y = std::fabs(x(0));
        else if (kind_ == "not_") y = truthy(x(0)) ? 0.0 : 1.0;
        else if (kind_ == "and_") y = (truthy(x(0)) && truthy(x(1))) ? 1.0 : 0.0;
        else if (kind_ == "or_") y = (truthy(x(0)) || truthy(x(1))) ? 1.0 : 0.0;
        else if (kind_ == "xor_") y = (truthy(x(0)) != truthy(x(1))) ? 1.0 : 0.0;
        else if (kind_ == "gt_") y = x(0) > p_[0] ? 1.0 : 0.0;
        else if (kind_ == "ge_") y = x(0) >= p_[0] ? 1.0 : 0.0;
        else if (kind_ == "lt_") y = x(0) < p_[0] ? 1.0 : 0.0;
        else if (kind_ == "le_") y = x(0) <= p_[0] ? 1.0 : 0.0;
        else if (kind_ == "hysteresis_") {
            if (x(0) >= p_[1]) state_ = 1.0;
            else if (x(0) <= p_[0]) state_ = 0.0;
            y = state_;
        } else if (kind_ == "limit_") y = std::min(std::max(x(0), p_[0]), p_[1]);
        else if (kind_ == "deadband_") y = std::fabs(x(0)) <= p_[0] ? 0.0 : x(0);
        else if (kind_ == "integrator_") {
            state_ += p_[0] * x(0) * dt;
            y = state_;
        } else if (kind_ == "derivative_") {
            y = initialized_ && dt > 0.0 ? p_[0] * (x(0) - prev_) / dt : 0.0;
            prev_ = x(0);
            initialized_ = true;
        } else if (kind_ == "lowpass_") {
            // y += (x - y) * dt / (tau + dt); stable for any dt.
            double tau = p_[0];
            if (!initialized_) {
                state_ = x(0);
                initialized_ = true;
            }
            state_ += (x(0) - state_) * (dt / (tau + dt));
            y = state_;
        } else if (kind_ == "ratelimit_") {
            double max_step = p_[0] * dt;
            if (!initialized_) {
                state_ = x(0);
                initialized_ = true;
            }
            state_ += std::min(std::max(x(0) - state_, -max_step), max_step);
            y = state_;
        } else if (kind_ == "delay_") {
            publish(out);
            capture(in);
        } else if (kind_ == "counter_") {
            if (truthy(x(1))) state_ = 0.0;
            else if (truthy(x(0)) && !truthy(prev_)) state_ = std::min(state_ + 1.0, p_[0]);
            prev_ = x(0);
            y = state_;
        } else if (kind_ == "sample_hold_") {
            if (truthy(x(1))) state_ = x(0);
            y = state_;
        } else if (kind_ == "pid_") {
            double e = x(0) - x(1);
            double d = initialized_ && dt > 0.0 ? (e - prev_) / dt : 0.0;
            prev_ = e;
            initialized_ = true;
            double candidate = p_[0] * e + p_[1] * (integ_ + e * dt) + p_[2] * d;
            // Conditional integration anti-windup: only integrate while
            // the unsaturated output stays within [out_lo, out_hi].
            if (candidate > p_[3] && candidate < p_[4]) integ_ += e * dt;
            y = std::min(std::max(p_[0] * e + p_[1] * integ_ + p_[2] * d, p_[3]), p_[4]);
        } else {
            throw std::logic_error("unhandled kind " + kind_);
        }
    }

    [[nodiscard]] std::uint32_t cost_cycles() const override { return cost_; }

    [[nodiscard]] bool is_two_phase() const override { return kind_ == "delay_"; }

    void publish(std::span<double> out) override { out[0] = buf_[head_]; }

    void capture(std::span<const double> in) override {
        buf_[head_] = in[0];
        head_ = (head_ + 1) % buf_.size();
    }

    void save_state(std::vector<double>& out) const override {
        out.push_back(state_);
        out.push_back(prev_);
        out.push_back(integ_);
        out.push_back(initialized_ ? 1.0 : 0.0);
        out.push_back(static_cast<double>(head_));
        out.insert(out.end(), buf_.begin(), buf_.end());
    }

    std::size_t load_state(std::span<const double> in) override {
        std::size_t need = 5 + buf_.size();
        if (in.size() < need) throw std::runtime_error("kernel state truncated");
        state_ = in[0];
        prev_ = in[1];
        integ_ = in[2];
        initialized_ = in[3] != 0.0;
        head_ = static_cast<std::size_t>(in[4]);
        if (!buf_.empty()) head_ %= buf_.size();
        std::copy(in.begin() + 5, in.begin() + static_cast<std::ptrdiff_t>(need),
                  buf_.begin());
        return need;
    }

private:
    std::string kind_;
    std::vector<double> p_;
    std::uint32_t cost_;
    double state_ = 0.0, prev_ = 0.0, integ_ = 0.0;
    bool initialized_ = false;
    std::vector<double> buf_;
    std::size_t head_ = 0;
};

/// Raises the same exception class the tree-walk interpreter would for a
/// fault surfaced by the VM as a result code.
[[noreturn]] void throw_vm_fault(expr::VmStatus status) {
    throw expr::EvalError(std::string("expression fault: ") + expr::to_string(status));
}

/// Kernel for expression_ blocks: evaluates a bytecode-compiled
/// expression over the input pins. Pin order = sorted free variables =
/// VM slot order, so the input span is the slot table — no lookup, no
/// boxing, no allocation per step.
class ExprKernel final : public FBKernel {
public:
    ExprKernel(const expr::Expr& ast, std::vector<std::string> vars)
        : compiled_(expr::compile(ast, vars)), n_vars_(vars.size()) {}

    void reset() override {}

    void step(std::span<const double> in, std::span<double> out, double) override {
        double y;
        if (expr::VmStatus s = compiled_.run(in, y); s != expr::VmStatus::Ok)
            throw_vm_fault(s);
        out[0] = y;
    }

    [[nodiscard]] std::uint32_t cost_cycles() const override {
        return 10 + 6 * static_cast<std::uint32_t>(n_vars_);
    }

    /// Stateless: the output is a function of this scan's inputs alone.
    void save_state(std::vector<double>& out) const override { (void)out; }
    std::size_t load_state(std::span<const double> in) override {
        (void)in;
        return 0;
    }

private:
    expr::CompiledExpr compiled_;
    std::size_t n_vars_;
};

/// Compiled transition: indexes into the SM's pin arrays plus bytecode-
/// compiled guard/action expressions (slots = input pin indices, resolved
/// once here rather than by string scan on every scan step).
struct CompiledTransition {
    meta::ObjectId id;
    std::size_t from = 0, to = 0;
    int event_pin = -1; // -1: no event (guard-only)
    std::optional<expr::CompiledExpr> guard; // nullopt: always true
    std::vector<std::pair<std::size_t, expr::CompiledExpr>> actions; // out pin -> expr
    int priority = 0;
    std::size_t model_order = 0;
};

struct CompiledState {
    meta::ObjectId id;
    std::string name;
    std::vector<std::pair<std::size_t, expr::CompiledExpr>> entry_actions;
};

/// State-machine kernel: event-driven Moore/Mealy hybrid. At each step it
/// takes at most one transition (run-to-completion per scan, matching the
/// clocked synchronous COMDES semantics).
class SmKernel final : public FBKernel {
public:
    SmKernel(meta::ObjectId sm_id, std::vector<CompiledState> states,
             std::vector<CompiledTransition> transitions, std::size_t initial,
             std::size_t n_outputs, SmObserver* observer)
        : sm_id_(sm_id), states_(std::move(states)), transitions_(std::move(transitions)),
          initial_(initial), n_outputs_(n_outputs), observer_(observer) {
        // Transition evaluation order: priority ascending, then model order.
        std::stable_sort(transitions_.begin(), transitions_.end(),
                         [](const auto& a, const auto& b) { return a.priority < b.priority; });
        reset();
    }

    void reset() override {
        current_ = initial_;
        held_outputs_.assign(n_outputs_, 0.0);
        entered_ = false;
    }

    void step(std::span<const double> in, std::span<double> out, double dt) override {
        (void)dt;
        auto run_actions =
            [&](const std::vector<std::pair<std::size_t, expr::CompiledExpr>>& as) {
            for (const auto& [pin, ce] : as) {
                double y;
                if (expr::VmStatus s = ce.run(in, y); s != expr::VmStatus::Ok)
                    throw_vm_fault(s);
                held_outputs_[pin] = y;
            }
        };

        if (!entered_) {
            // Initial state entry happens on the first scan so the
            // debugger observes it like any other entry.
            entered_ = true;
            run_actions(states_[current_].entry_actions);
            if (observer_) observer_->on_state_enter(sm_id_, states_[current_].id);
        }

        for (const auto& t : transitions_) {
            if (t.from != current_) continue;
            if (t.event_pin >= 0 && !truthy(in[static_cast<std::size_t>(t.event_pin)]))
                continue;
            if (t.guard) {
                double g;
                if (expr::VmStatus s = t.guard->run(in, g); s != expr::VmStatus::Ok)
                    throw_vm_fault(s);
                if (g == 0.0) continue; // eval_bool truthiness on the coerced result
            }
            run_actions(t.actions);
            current_ = t.to;
            if (observer_) observer_->on_transition(sm_id_, t.id);
            run_actions(states_[current_].entry_actions);
            if (observer_) observer_->on_state_enter(sm_id_, states_[current_].id);
            break; // one transition per scan
        }

        for (std::size_t i = 0; i < n_outputs_; ++i) out[i] = held_outputs_[i];
        out[n_outputs_] = static_cast<double>(current_); // implicit "state" pin
    }

    [[nodiscard]] std::uint32_t cost_cycles() const override {
        return 30 + 12 * static_cast<std::uint32_t>(transitions_.size());
    }

    void save_state(std::vector<double>& out) const override {
        out.push_back(static_cast<double>(current_));
        out.push_back(entered_ ? 1.0 : 0.0);
        out.insert(out.end(), held_outputs_.begin(), held_outputs_.end());
    }

    std::size_t load_state(std::span<const double> in) override {
        std::size_t need = 2 + n_outputs_;
        if (in.size() < need) throw std::runtime_error("kernel state truncated");
        auto idx = static_cast<std::size_t>(in[0]);
        if (idx >= states_.size()) throw std::runtime_error("SM state out of range");
        current_ = idx;
        entered_ = in[1] != 0.0;
        held_outputs_.assign(in.begin() + 2,
                             in.begin() + static_cast<std::ptrdiff_t>(need));
        return need;
    }

private:
    meta::ObjectId sm_id_;
    std::vector<CompiledState> states_;
    std::vector<CompiledTransition> transitions_;
    std::size_t initial_;
    std::size_t n_outputs_;
    SmObserver* observer_;
    std::size_t current_ = 0;
    std::vector<double> held_outputs_;
    bool entered_ = false;
};

std::vector<std::string> string_list(const meta::Value& v) {
    std::vector<std::string> out;
    if (v.is_list())
        for (const auto& e : v.as_list()) out.push_back(e.as_string());
    return out;
}

} // namespace

std::vector<std::string> basic_kind_names() {
    std::vector<std::string> out;
    out.reserve(kind_table().size());
    for (const auto& k : kind_table()) out.emplace_back(k.name);
    return out;
}

int FBPins::input_index(std::string_view name) const {
    for (std::size_t i = 0; i < inputs.size(); ++i)
        if (inputs[i] == name) return static_cast<int>(i);
    return -1;
}

int FBPins::output_index(std::string_view name) const {
    for (std::size_t i = 0; i < outputs.size(); ++i)
        if (outputs[i] == name) return static_cast<int>(i);
    return -1;
}

FBPins pins_of(const meta::Model& model, const meta::MObject& fb) {
    const auto& c = comdes_metamodel();
    FBPins pins;

    if (fb.meta_class().is_subtype_of(*c.basic_fb)) {
        const std::string& kind = fb.attr("kind").as_string();
        if (kind == "expression_") {
            auto ast = expr::parse(fb.attr("expr").as_string());
            pins.inputs = expr::free_variables(*ast);
            pins.outputs = {"out"};
            return pins;
        }
        const KindInfo& k = kind_info(kind);
        pins.inputs = k.inputs;
        pins.outputs = k.outputs;
        return pins;
    }

    if (fb.meta_class().is_subtype_of(*c.sm_fb)) {
        pins.inputs = string_list(fb.attr("inputs"));
        pins.outputs = string_list(fb.attr("outputs"));
        pins.outputs.emplace_back("state");
        return pins;
    }

    auto pins_from_maps = [&](const meta::MObject& owner) {
        for (meta::ObjectId pm_id : owner.refs("port_maps")) {
            const meta::MObject& pm = model.at(pm_id);
            const std::string& pin = pm.attr("outer_pin").as_string();
            auto& vec = pm.attr("direction").as_string() == "in" ? pins.inputs : pins.outputs;
            if (std::find(vec.begin(), vec.end(), pin) == vec.end()) vec.push_back(pin);
        }
    };

    if (fb.meta_class().is_subtype_of(*c.composite_fb)) {
        pins_from_maps(fb);
        return pins;
    }

    if (fb.meta_class().is_subtype_of(*c.modal_fb)) {
        pins.inputs.push_back(fb.attr("selector_pin").as_string());
        for (meta::ObjectId mode_id : fb.refs("modes")) pins_from_maps(model.at(mode_id));
        return pins;
    }

    throw std::invalid_argument("pins_of: unsupported block class " + fb.meta_class().name());
}

std::unique_ptr<FBKernel> make_basic_kernel(const meta::MObject& fb) {
    const std::string& kind = fb.attr("kind").as_string();
    if (kind == "expression_") {
        auto ast = expr::parse(fb.attr("expr").as_string());
        auto vars = expr::free_variables(*ast);
        return std::make_unique<ExprKernel>(*ast, std::move(vars));
    }
    const KindInfo& k = kind_info(kind);
    auto params = params_of(fb);
    if (params.size() != k.n_params)
        throw std::invalid_argument("BasicFB '" + fb.name() + "' (" + kind + ") needs " +
                                    std::to_string(k.n_params) + " params, got " +
                                    std::to_string(params.size()));
    return std::make_unique<BasicKernel>(kind, std::move(params), k.cost);
}

std::unique_ptr<FBKernel> make_sm_kernel(const meta::Model& model, const meta::MObject& sm_fb,
                                         SmObserver* observer) {
    FBPins pins = pins_of(model, sm_fb);
    std::size_t n_outputs = pins.outputs.size() - 1; // excluding implicit "state"

    auto out_index = [&](const std::string& name, const char* where) {
        int idx = pins.output_index(name);
        if (idx < 0 || static_cast<std::size_t>(idx) >= n_outputs)
            throw std::invalid_argument(std::string(where) + ": '" + name +
                                        "' is not a declared output of SM '" + sm_fb.name() +
                                        "'");
        return static_cast<std::size_t>(idx);
    };
    // Guards and actions compile to bytecode with slots = input pin
    // indices (the kernel's input span doubles as the VM slot table).
    auto compile_expr = [&](const std::string& src) {
        return expr::compile(*expr::parse(src), pins.inputs);
    };
    auto compile_actions = [&](const meta::MObject& owner, const char* ref) {
        std::vector<std::pair<std::size_t, expr::CompiledExpr>> out;
        for (meta::ObjectId a_id : owner.refs(ref)) {
            const meta::MObject& a = model.at(a_id);
            out.emplace_back(out_index(a.attr("target").as_string(), "action"),
                             compile_expr(a.attr("expr").as_string()));
        }
        return out;
    };

    std::vector<CompiledState> states;
    std::map<std::uint64_t, std::size_t> state_index;
    for (meta::ObjectId s_id : sm_fb.refs("states")) {
        const meta::MObject& s = model.at(s_id);
        state_index[s_id.raw] = states.size();
        states.push_back({s_id, s.name(), compile_actions(s, "entry_actions")});
    }

    std::vector<CompiledTransition> transitions;
    std::size_t order = 0;
    for (meta::ObjectId t_id : sm_fb.refs("transitions")) {
        const meta::MObject& t = model.at(t_id);
        CompiledTransition ct;
        ct.id = t_id;
        auto from_it = state_index.find(t.ref("from").raw);
        auto to_it = state_index.find(t.ref("to").raw);
        if (from_it == state_index.end() || to_it == state_index.end())
            throw std::invalid_argument("transition endpoints outside SM '" + sm_fb.name() +
                                        "'");
        ct.from = from_it->second;
        ct.to = to_it->second;
        const meta::Value& ev = t.attr("event");
        if (ev.is_string() && !ev.as_string().empty()) {
            ct.event_pin = pins.input_index(ev.as_string());
            if (ct.event_pin < 0)
                throw std::invalid_argument("event '" + ev.as_string() +
                                            "' is not an input of SM '" + sm_fb.name() + "'");
        }
        const meta::Value& g = t.attr("guard");
        if (g.is_string() && !g.as_string().empty()) ct.guard = compile_expr(g.as_string());
        ct.actions = compile_actions(t, "actions");
        ct.priority = static_cast<int>(t.attr("priority").as_int());
        ct.model_order = order++;
        transitions.push_back(std::move(ct));
    }

    auto init_it = state_index.find(sm_fb.ref("initial").raw);
    if (init_it == state_index.end())
        throw std::invalid_argument("SM '" + sm_fb.name() + "' initial state not in states");

    return std::make_unique<SmKernel>(sm_fb.id(), std::move(states), std::move(transitions),
                                      init_it->second, n_outputs, observer);
}

} // namespace gmdf::comdes
