#include "codegen/cemit.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "comdes/fblib.hpp"
#include "comdes/metamodel.hpp"
#include "expr/parser.hpp"

namespace gmdf::codegen {

namespace {

using meta::MObject;
using meta::Model;
using meta::ObjectId;

std::string sanitize(const std::string& name) {
    std::string out;
    for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) out = "x" + out;
    return out;
}

std::string fmt(double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    std::string s = os.str();
    if (s.find_first_of(".eE") == std::string::npos) s += ".0";
    return s;
}

/// Emits an expression AST as a double-valued C expression with variable
/// substitution. Comparisons/logicals produce 1.0/0.0 like the evaluator.
std::string expr_to_c(const expr::Expr& e, const std::map<std::string, std::string>& vars) {
    using namespace expr;
    return std::visit(
        [&](const auto& n) -> std::string {
            using T = std::decay_t<decltype(n)>;
            if constexpr (std::is_same_v<T, IntLit>) {
                return fmt(static_cast<double>(n.value));
            } else if constexpr (std::is_same_v<T, RealLit>) {
                return fmt(n.value);
            } else if constexpr (std::is_same_v<T, BoolLit>) {
                return n.value ? "1.0" : "0.0";
            } else if constexpr (std::is_same_v<T, VarRef>) {
                auto it = vars.find(n.name);
                if (it == vars.end())
                    throw std::invalid_argument("expression references unknown pin '" +
                                                n.name + "'");
                return it->second;
            } else if constexpr (std::is_same_v<T, Unary>) {
                std::string a = expr_to_c(*n.operand, vars);
                if (n.op == UnOp::Neg) return "(-" + a + ")";
                return "((" + a + ") == 0.0 ? 1.0 : 0.0)";
            } else if constexpr (std::is_same_v<T, Binary>) {
                std::string a = expr_to_c(*n.lhs, vars);
                std::string b = expr_to_c(*n.rhs, vars);
                switch (n.op) {
                case BinOp::Add: return "(" + a + " + " + b + ")";
                case BinOp::Sub: return "(" + a + " - " + b + ")";
                case BinOp::Mul: return "(" + a + " * " + b + ")";
                case BinOp::Div: return "(" + a + " / " + b + ")";
                case BinOp::Mod: return "fmod(" + a + ", " + b + ")";
                case BinOp::Lt: return "((" + a + " < " + b + ") ? 1.0 : 0.0)";
                case BinOp::Le: return "((" + a + " <= " + b + ") ? 1.0 : 0.0)";
                case BinOp::Gt: return "((" + a + " > " + b + ") ? 1.0 : 0.0)";
                case BinOp::Ge: return "((" + a + " >= " + b + ") ? 1.0 : 0.0)";
                case BinOp::Eq: return "((" + a + " == " + b + ") ? 1.0 : 0.0)";
                case BinOp::Ne: return "((" + a + " != " + b + ") ? 1.0 : 0.0)";
                case BinOp::And:
                    return "(((" + a + ") != 0.0 && (" + b + ") != 0.0) ? 1.0 : 0.0)";
                case BinOp::Or:
                    return "(((" + a + ") != 0.0 || (" + b + ") != 0.0) ? 1.0 : 0.0)";
                }
                return "0.0";
            } else if constexpr (std::is_same_v<T, Conditional>) {
                return "(((" + expr_to_c(*n.cond, vars) + ") != 0.0) ? (" +
                       expr_to_c(*n.then_e, vars) + ") : (" + expr_to_c(*n.else_e, vars) +
                       "))";
            } else if constexpr (std::is_same_v<T, Call>) {
                std::string args;
                for (std::size_t i = 0; i < n.args.size(); ++i) {
                    if (i != 0) args += ", ";
                    args += expr_to_c(*n.args[i], vars);
                }
                return "gmdf_" + n.fn + "(" + args + ")";
            }
        },
        e.node);
}

/// Accumulates the three sections of the translation unit.
struct EmitContext {
    const Model* model = nullptr;
    std::ostringstream fields;  // struct members
    std::ostringstream init;    // init statements (state struct is zeroed first)
    std::ostringstream step;    // step statements
    std::ostringstream mirrors; // volatile mirror variable definitions
    int indent = 1;

    std::string pad() const { return std::string(static_cast<std::size_t>(indent) * 4, ' '); }
    void line(const std::string& s) { step << pad() << s << "\n"; }
    void field(const std::string& s) { fields << "    " << s << "\n"; }
    void init_line(const std::string& s) { init << "    " << s << "\n"; }
};

/// Per-(fb,pin) C expressions for input pins.
using PinExprs = std::map<std::pair<std::string, std::string>, std::string>;

std::vector<double> params_of(const MObject& fb) {
    std::vector<double> out;
    const meta::Value& v = fb.attr("params");
    if (v.is_list())
        for (const auto& e : v.as_list()) out.push_back(e.as_number());
    return out;
}

std::vector<std::string> string_list(const meta::Value& v) {
    std::vector<std::string> out;
    if (v.is_list())
        for (const auto& e : v.as_list()) out.push_back(e.as_string());
    return out;
}

void emit_network(EmitContext& ctx, const MObject& network, const std::string& prefix,
                  const PinExprs& ext_inputs,
                  std::map<std::pair<std::string, std::string>, std::string>& out_nets);

/// Emits one basic FB; `x(i)` is the C expression of input pin i.
void emit_basic(EmitContext& ctx, const MObject& fb, const std::string& id,
                const std::vector<std::string>& in, const std::string& net) {
    const std::string& kind = fb.attr("kind").as_string();
    auto p = params_of(fb);
    auto st = [&](const char* suffix) { return "st->" + id + suffix; };

    if (kind == "const_") ctx.line(net + " = " + fmt(p[0]) + ";");
    else if (kind == "gain_") ctx.line(net + " = " + fmt(p[0]) + " * " + in[0] + ";");
    else if (kind == "offset_") ctx.line(net + " = " + fmt(p[0]) + " + " + in[0] + ";");
    else if (kind == "add_") ctx.line(net + " = " + in[0] + " + " + in[1] + ";");
    else if (kind == "sub_") ctx.line(net + " = " + in[0] + " - " + in[1] + ";");
    else if (kind == "mul_") ctx.line(net + " = " + in[0] + " * " + in[1] + ";");
    else if (kind == "div_")
        ctx.line(net + " = (" + in[1] + " == 0.0) ? 0.0 : " + in[0] + " / " + in[1] + ";");
    else if (kind == "min_") ctx.line(net + " = gmdf_min(" + in[0] + ", " + in[1] + ");");
    else if (kind == "max_") ctx.line(net + " = gmdf_max(" + in[0] + ", " + in[1] + ");");
    else if (kind == "abs_") ctx.line(net + " = fabs(" + in[0] + ");");
    else if (kind == "not_") ctx.line(net + " = (" + in[0] + " > 0.5) ? 0.0 : 1.0;");
    else if (kind == "and_")
        ctx.line(net + " = (" + in[0] + " > 0.5 && " + in[1] + " > 0.5) ? 1.0 : 0.0;");
    else if (kind == "or_")
        ctx.line(net + " = (" + in[0] + " > 0.5 || " + in[1] + " > 0.5) ? 1.0 : 0.0;");
    else if (kind == "xor_")
        ctx.line(net + " = ((" + in[0] + " > 0.5) != (" + in[1] + " > 0.5)) ? 1.0 : 0.0;");
    else if (kind == "gt_") ctx.line(net + " = (" + in[0] + " > " + fmt(p[0]) + ") ? 1.0 : 0.0;");
    else if (kind == "ge_") ctx.line(net + " = (" + in[0] + " >= " + fmt(p[0]) + ") ? 1.0 : 0.0;");
    else if (kind == "lt_") ctx.line(net + " = (" + in[0] + " < " + fmt(p[0]) + ") ? 1.0 : 0.0;");
    else if (kind == "le_") ctx.line(net + " = (" + in[0] + " <= " + fmt(p[0]) + ") ? 1.0 : 0.0;");
    else if (kind == "hysteresis_") {
        ctx.field("double " + id + "y;");
        ctx.line("if (" + in[0] + " >= " + fmt(p[1]) + ") " + st("y") + " = 1.0;");
        ctx.line("else if (" + in[0] + " <= " + fmt(p[0]) + ") " + st("y") + " = 0.0;");
        ctx.line(net + " = " + st("y") + ";");
    } else if (kind == "limit_")
        ctx.line(net + " = gmdf_clamp(" + in[0] + ", " + fmt(p[0]) + ", " + fmt(p[1]) + ");");
    else if (kind == "deadband_")
        ctx.line(net + " = (fabs(" + in[0] + ") <= " + fmt(p[0]) + ") ? 0.0 : " + in[0] + ";");
    else if (kind == "integrator_") {
        ctx.field("double " + id + "y;");
        ctx.init_line("st->" + id + "y = " + fmt(p[1]) + ";");
        ctx.line(st("y") + " += " + fmt(p[0]) + " * " + in[0] + " * dt;");
        ctx.line(net + " = " + st("y") + ";");
    } else if (kind == "derivative_") {
        ctx.field("double " + id + "prev; int " + id + "init;");
        ctx.line(net + " = (" + st("init") + " && dt > 0.0) ? " + fmt(p[0]) + " * (" + in[0] +
                 " - " + st("prev") + ") / dt : 0.0;");
        ctx.line(st("prev") + " = " + in[0] + "; " + st("init") + " = 1;");
    } else if (kind == "lowpass_") {
        ctx.field("double " + id + "y; int " + id + "init;");
        ctx.line("if (!" + st("init") + ") { " + st("y") + " = " + in[0] + "; " + st("init") +
                 " = 1; }");
        ctx.line(st("y") + " += (" + in[0] + " - " + st("y") + ") * (dt / (" + fmt(p[0]) +
                 " + dt));");
        ctx.line(net + " = " + st("y") + ";");
    } else if (kind == "ratelimit_") {
        ctx.field("double " + id + "y; int " + id + "init;");
        ctx.line("if (!" + st("init") + ") { " + st("y") + " = " + in[0] + "; " + st("init") +
                 " = 1; }");
        ctx.line(st("y") + " += gmdf_clamp(" + in[0] + " - " + st("y") + ", -(" + fmt(p[0]) +
                 " * dt), " + fmt(p[0]) + " * dt);");
        ctx.line(net + " = " + st("y") + ";");
    } else if (kind == "delay_") {
        // Handled two-phase by emit_network (publish/capture around the scan).
        throw std::logic_error("delay_ must not reach emit_basic");
    } else if (kind == "counter_") {
        ctx.field("double " + id + "y; double " + id + "prev;");
        ctx.line("if (" + in[1] + " > 0.5) " + st("y") + " = 0.0;");
        ctx.line("else if (" + in[0] + " > 0.5 && " + st("prev") + " <= 0.5) " + st("y") +
                 " = gmdf_min(" + st("y") + " + 1.0, " + fmt(p[0]) + ");");
        ctx.line(st("prev") + " = " + in[0] + ";");
        ctx.line(net + " = " + st("y") + ";");
    } else if (kind == "sample_hold_") {
        ctx.field("double " + id + "y;");
        ctx.line("if (" + in[1] + " > 0.5) " + st("y") + " = " + in[0] + ";");
        ctx.line(net + " = " + st("y") + ";");
    } else if (kind == "pid_") {
        ctx.field("double " + id + "integ; double " + id + "prev; int " + id + "init;");
        ctx.line("{");
        ++ctx.indent;
        ctx.line("double e = " + in[0] + " - " + in[1] + ";");
        ctx.line("double d = (" + st("init") + " && dt > 0.0) ? (e - " + st("prev") +
                 ") / dt : 0.0;");
        ctx.line(st("prev") + " = e; " + st("init") + " = 1;");
        ctx.line("double cand = " + fmt(p[0]) + " * e + " + fmt(p[1]) + " * (" + st("integ") +
                 " + e * dt) + " + fmt(p[2]) + " * d;");
        ctx.line("if (cand > " + fmt(p[3]) + " && cand < " + fmt(p[4]) + ") " + st("integ") +
                 " += e * dt;");
        ctx.line(net + " = gmdf_clamp(" + fmt(p[0]) + " * e + " + fmt(p[1]) + " * " +
                 st("integ") + " + " + fmt(p[2]) + " * d, " + fmt(p[3]) + ", " + fmt(p[4]) +
                 ");");
        --ctx.indent;
        ctx.line("}");
    } else if (kind == "expression_") {
        auto ast = expr::parse(fb.attr("expr").as_string());
        auto vars = expr::free_variables(*ast);
        std::map<std::string, std::string> sub;
        for (std::size_t i = 0; i < vars.size(); ++i) sub[vars[i]] = in[i];
        ctx.line(net + " = " + expr_to_c(*ast, sub) + ";");
    } else {
        throw std::invalid_argument("cemit: unknown BasicFB kind '" + kind + "'");
    }
}

void emit_sm(EmitContext& ctx, const Model& model, const MObject& fb, const std::string& id,
             const comdes::FBPins& pins, const std::vector<std::string>& in,
             const std::vector<std::string>& nets) {
    // Held output fields + state + entered flag.
    auto outs = string_list(fb.attr("outputs"));
    std::map<std::string, std::string> action_targets;
    for (const auto& o : outs) {
        ctx.field("double " + id + "o_" + sanitize(o) + ";");
        action_targets[o] = "st->" + id + "o_" + sanitize(o);
    }
    ctx.field("int " + id + "state; int " + id + "entered;");
    ctx.mirrors << "volatile unsigned " << id << "state_mirror;\n";

    // Input substitution map for guards/actions.
    std::map<std::string, std::string> sub;
    for (std::size_t i = 0; i < pins.inputs.size(); ++i) sub[pins.inputs[i]] = in[i];

    // State indexing follows the model's states order (same as the kernel).
    std::vector<ObjectId> states;
    std::map<std::uint64_t, std::size_t> index_of;
    for (ObjectId s_id : fb.refs("states")) {
        index_of[s_id.raw] = states.size();
        states.push_back(s_id);
    }
    std::size_t initial = index_of.at(fb.ref("initial").raw);
    ctx.init_line("st->" + id + "state = " + std::to_string(initial) + ";");

    auto emit_actions = [&](const MObject& owner, const char* ref) {
        for (ObjectId a_id : owner.refs(ref)) {
            const MObject& a = model.at(a_id);
            auto ast = expr::parse(a.attr("expr").as_string());
            ctx.line(action_targets.at(a.attr("target").as_string()) + " = " +
                     expr_to_c(*ast, sub) + ";");
        }
    };
    auto emit_enter = [&](std::size_t idx) {
        const MObject& s = model.at(states[idx]);
        emit_actions(s, "entry_actions");
        ctx.line("st->" + id + "state = " + std::to_string(idx) + ";");
        ctx.line("st->" + id + "state_mirror_sync = 1;");
        ctx.line("GMDF_EMIT(4 /*STATE_ENTER*/, " + std::to_string(fb.id().raw) + "u, " +
                 std::to_string(states[idx].raw) + "u, 0.0f);");
    };
    ctx.field("int " + id + "state_mirror_sync;");

    ctx.line("if (!st->" + id + "entered) {");
    ++ctx.indent;
    ctx.line("st->" + id + "entered = 1;");
    emit_enter(initial);
    --ctx.indent;
    ctx.line("}");

    // Transitions grouped by source state, ordered by priority then model
    // order (matching SmKernel's stable sort).
    struct T {
        const MObject* t;
        std::int64_t priority;
        std::size_t order;
    };
    std::map<std::size_t, std::vector<T>> by_from;
    std::size_t order = 0;
    for (ObjectId t_id : fb.refs("transitions")) {
        const MObject& t = model.at(t_id);
        by_from[index_of.at(t.ref("from").raw)].push_back(
            {&t, t.attr("priority").as_int(), order++});
    }
    for (auto& [from, ts] : by_from)
        std::stable_sort(ts.begin(), ts.end(),
                         [](const T& a, const T& b) { return a.priority < b.priority; });

    ctx.line("switch (st->" + id + "state) {");
    for (std::size_t si = 0; si < states.size(); ++si) {
        ctx.line("case " + std::to_string(si) + ": {");
        ++ctx.indent;
        auto it = by_from.find(si);
        if (it != by_from.end()) {
            for (const T& entry : it->second) {
                const MObject& t = *entry.t;
                std::string cond;
                const meta::Value& ev = t.attr("event");
                if (ev.is_string() && !ev.as_string().empty())
                    cond = "(" + sub.at(ev.as_string()) + " > 0.5)";
                const meta::Value& g = t.attr("guard");
                if (g.is_string() && !g.as_string().empty()) {
                    auto ast = expr::parse(g.as_string());
                    std::string gc = "((" + expr_to_c(*ast, sub) + ") != 0.0)";
                    cond = cond.empty() ? gc : cond + " && " + gc;
                }
                if (cond.empty()) cond = "1";
                ctx.line("if (" + cond + ") {");
                ++ctx.indent;
                emit_actions(t, "actions");
                ctx.line("GMDF_EMIT(5 /*TRANSITION*/, " + std::to_string(fb.id().raw) +
                         "u, " + std::to_string(t.id().raw) + "u, 0.0f);");
                emit_enter(index_of.at(t.ref("to").raw));
                ctx.line("break;");
                --ctx.indent;
                ctx.line("}");
            }
        }
        ctx.line("break;");
        --ctx.indent;
        ctx.line("}");
    }
    ctx.line("}");
    ctx.line("if (st->" + id + "state_mirror_sync) { " + id + "state_mirror = (unsigned)st->" +
             id + "state; st->" + id + "state_mirror_sync = 0; }");

    // Copy held outputs (and the implicit state pin) onto the nets.
    for (std::size_t i = 0; i < outs.size(); ++i)
        ctx.line(nets[i] + " = st->" + id + "o_" + sanitize(outs[i]) + ";");
    ctx.line(nets[outs.size()] + " = (double)st->" + id + "state;");
}

void emit_network(EmitContext& ctx, const MObject& network, const std::string& prefix,
                  const PinExprs& ext_inputs,
                  std::map<std::pair<std::string, std::string>, std::string>& out_nets) {
    const auto& c = comdes::comdes_metamodel();
    const Model& model = *ctx.model;

    struct B {
        const MObject* obj;
        comdes::FBPins pins;
        bool is_delay;
    };
    std::vector<B> blocks;
    std::map<std::string, std::size_t> by_name;
    for (ObjectId b_id : network.refs("blocks")) {
        const MObject& b = model.at(b_id);
        bool is_delay = b.meta_class().is_subtype_of(*c.basic_fb) &&
                        b.attr("kind").as_string() == "delay_";
        by_name[b.name()] = blocks.size();
        blocks.push_back({&b, comdes::pins_of(model, b), is_delay});
    }

    // Net fields for every output pin of every block.
    auto net_name = [&](std::size_t bi, int pin) {
        return "st->n_" + prefix + sanitize(blocks[bi].obj->name()) + "_" +
               sanitize(blocks[bi].pins.outputs[static_cast<std::size_t>(pin)]);
    };
    for (std::size_t bi = 0; bi < blocks.size(); ++bi)
        for (std::size_t pi = 0; pi < blocks[bi].pins.outputs.size(); ++pi)
            ctx.field("double n_" + prefix + sanitize(blocks[bi].obj->name()) + "_" +
                      sanitize(blocks[bi].pins.outputs[pi]) + ";");

    // Input pin expressions: connections first, then external bindings.
    std::map<std::pair<std::size_t, std::string>, std::string> in_expr;
    std::map<std::size_t, std::set<std::size_t>> edges;
    for (ObjectId conn_id : network.refs("connections")) {
        const MObject& conn = model.at(conn_id);
        std::size_t fi = by_name.at(model.at(conn.ref("from")).name());
        std::size_t ti = by_name.at(model.at(conn.ref("to")).name());
        int fp = blocks[fi].pins.output_index(conn.attr("from_pin").as_string());
        in_expr[{ti, conn.attr("to_pin").as_string()}] = net_name(fi, fp);
        if (!blocks[fi].is_delay) edges[fi].insert(ti);
    }
    for (const auto& [key, expr_str] : ext_inputs) {
        auto it = by_name.find(key.first);
        if (it == by_name.end())
            throw std::invalid_argument("cemit: unknown block '" + key.first + "'");
        in_expr[{it->second, key.second}] = expr_str;
    }

    // Topological order (Kahn), matching the flattener.
    std::vector<int> indeg(blocks.size(), 0);
    for (const auto& [f, tos] : edges)
        for (auto t : tos) ++indeg[t];
    std::vector<std::size_t> frontier, order;
    for (std::size_t i = 0; i < blocks.size(); ++i)
        if (indeg[i] == 0) frontier.push_back(i);
    while (!frontier.empty()) {
        std::size_t cur = frontier.front();
        frontier.erase(frontier.begin());
        order.push_back(cur);
        for (auto nx : edges[cur])
            if (--indeg[nx] == 0) frontier.push_back(nx);
    }
    if (order.size() != blocks.size())
        throw std::invalid_argument("cemit: combinational cycle");

    // Phase A: delay blocks publish last scan's sample before anything
    // else reads their nets (unit-delay semantics; see SubProgram::run).
    for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
        if (!blocks[bi].is_delay) continue;
        const MObject& b = *blocks[bi].obj;
        std::string id = prefix + sanitize(b.name()) + "_";
        int n = std::max(1, static_cast<int>(params_of(b)[0]));
        ctx.field("double " + id + "buf[" + std::to_string(n) + "]; int " + id + "h;");
        ctx.line("/* delay_ " + b.name() + ": publish */");
        ctx.line(net_name(bi, 0) + " = st->" + id + "buf[st->" + id + "h];");
    }

    for (std::size_t bi : order) {
        if (blocks[bi].is_delay) continue;
        const B& blk = blocks[bi];
        const MObject& b = *blk.obj;
        std::string id = prefix + sanitize(b.name()) + "_";
        std::vector<std::string> in;
        for (const auto& pin : blk.pins.inputs) {
            auto it = in_expr.find({bi, pin});
            in.push_back(it == in_expr.end() ? "0.0" : it->second);
        }
        std::vector<std::string> nets;
        for (std::size_t pi = 0; pi < blk.pins.outputs.size(); ++pi)
            nets.push_back(net_name(bi, static_cast<int>(pi)));

        ctx.line("/* " + b.meta_class().name() + " " + b.name() + " */");
        if (b.meta_class().is_subtype_of(*c.basic_fb)) {
            emit_basic(ctx, b, id, in, nets[0]);
        } else if (b.meta_class().is_subtype_of(*c.sm_fb)) {
            emit_sm(ctx, model, b, id, blk.pins, in, nets);
        } else if (b.meta_class().is_subtype_of(*c.composite_fb)) {
            PinExprs inner_in;
            for (ObjectId pm_id : b.refs("port_maps")) {
                const MObject& pm = model.at(pm_id);
                if (pm.attr("direction").as_string() != "in") continue;
                int op = blk.pins.input_index(pm.attr("outer_pin").as_string());
                inner_in[{pm.attr("inner_fb").as_string(), pm.attr("inner_pin").as_string()}] =
                    in[static_cast<std::size_t>(op)];
            }
            std::map<std::pair<std::string, std::string>, std::string> inner_out;
            emit_network(ctx, model.at(b.ref("network")), id, inner_in, inner_out);
            for (ObjectId pm_id : b.refs("port_maps")) {
                const MObject& pm = model.at(pm_id);
                if (pm.attr("direction").as_string() != "out") continue;
                int op = blk.pins.output_index(pm.attr("outer_pin").as_string());
                ctx.line(nets[static_cast<std::size_t>(op)] + " = " +
                         inner_out.at({pm.attr("inner_fb").as_string(),
                                       pm.attr("inner_pin").as_string()}) +
                         ";");
            }
        } else if (b.meta_class().is_subtype_of(*c.modal_fb)) {
            ctx.field("int " + id + "mode;");
            ctx.init_line("st->" + id + "mode = -1;");
            ctx.mirrors << "volatile unsigned " << id << "mode_mirror;\n";
            ctx.line("switch ((int)llround(" + in[0] + ")) {");
            std::size_t mode_index = 0;
            for (ObjectId m_id : b.refs("modes")) {
                const MObject& mode = model.at(m_id);
                ctx.line("case " + std::to_string(mode.attr("value").as_int()) + ": {");
                ++ctx.indent;
                ctx.line("if (st->" + id + "mode != " + std::to_string(mode_index) + ") {");
                ++ctx.indent;
                ctx.line("st->" + id + "mode = " + std::to_string(mode_index) + ";");
                ctx.line(id + "mode_mirror = " + std::to_string(mode_index) + "u;");
                ctx.line("GMDF_EMIT(7 /*MODE_CHANGE*/, " + std::to_string(b.id().raw) +
                         "u, " + std::to_string(m_id.raw) + "u, 0.0f);");
                --ctx.indent;
                ctx.line("}");
                PinExprs inner_in;
                for (ObjectId pm_id : mode.refs("port_maps")) {
                    const MObject& pm = model.at(pm_id);
                    if (pm.attr("direction").as_string() != "in") continue;
                    int op = blk.pins.input_index(pm.attr("outer_pin").as_string());
                    inner_in[{pm.attr("inner_fb").as_string(),
                              pm.attr("inner_pin").as_string()}] =
                        in[static_cast<std::size_t>(op)];
                }
                std::map<std::pair<std::string, std::string>, std::string> inner_out;
                emit_network(ctx, model.at(mode.ref("network")),
                             id + "m" + std::to_string(mode_index) + "_", inner_in, inner_out);
                for (ObjectId pm_id : mode.refs("port_maps")) {
                    const MObject& pm = model.at(pm_id);
                    if (pm.attr("direction").as_string() != "out") continue;
                    int op = blk.pins.output_index(pm.attr("outer_pin").as_string());
                    ctx.line(nets[static_cast<std::size_t>(op)] + " = " +
                             inner_out.at({pm.attr("inner_fb").as_string(),
                                           pm.attr("inner_pin").as_string()}) +
                             ";");
                }
                ctx.line("break;");
                --ctx.indent;
                ctx.line("}");
                ++mode_index;
            }
            ctx.line("default: break; /* unknown mode: outputs hold */");
            ctx.line("}");
        } else {
            throw std::invalid_argument("cemit: unsupported block class " +
                                        b.meta_class().name());
        }
    }

    // Phase B: delay blocks capture this scan's inputs.
    for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
        if (!blocks[bi].is_delay) continue;
        const MObject& b = *blocks[bi].obj;
        std::string id = prefix + sanitize(b.name()) + "_";
        int n = std::max(1, static_cast<int>(params_of(b)[0]));
        auto it = in_expr.find({bi, "in"});
        std::string x = it == in_expr.end() ? "0.0" : it->second;
        ctx.line("/* delay_ " + b.name() + ": capture */");
        ctx.line("st->" + id + "buf[st->" + id + "h] = " + x + ";");
        ctx.line("st->" + id + "h = (st->" + id + "h + 1) % " + std::to_string(n) + ";");
    }

    for (std::size_t bi = 0; bi < blocks.size(); ++bi)
        for (std::size_t pi = 0; pi < blocks[bi].pins.outputs.size(); ++pi)
            out_nets[{blocks[bi].obj->name(), blocks[bi].pins.outputs[pi]}] =
                net_name(bi, static_cast<int>(pi));
}

} // namespace

std::string emit_actor_c(const Model& model, const MObject& actor,
                         const CEmitOptions& options) {
    std::string actor_name = sanitize(actor.name());
    EmitContext ctx;
    ctx.model = &model;

    // External pin expressions from the actor bindings.
    PinExprs ext_in;
    std::size_t n_in = 0;
    for (ObjectId b_id : actor.refs("inputs")) {
        const MObject& b = model.at(b_id);
        ext_in[{b.attr("fb").as_string(), b.attr("pin").as_string()}] =
            "in[" + std::to_string(n_in++) + "]";
    }

    std::map<std::pair<std::string, std::string>, std::string> out_nets;
    emit_network(ctx, model.at(actor.ref("network")), "", ext_in, out_nets);

    std::ostringstream out_copy;
    std::size_t n_out = 0;
    for (ObjectId b_id : actor.refs("outputs")) {
        const MObject& b = model.at(b_id);
        out_copy << "    out[" << n_out++ << "] = "
                 << out_nets.at({b.attr("fb").as_string(), b.attr("pin").as_string()})
                 << ";\n";
    }

    std::ostringstream os;
    os << "/* Generated by gmdf-codegen from COMDES actor '" << actor.name() << "'.\n"
       << " * Inputs: " << n_in << ", outputs: " << n_out << ". Do not edit. */\n"
       << "#include <math.h>\n\n"
       << "#ifdef GMDF_INSTRUMENT\n"
       << "extern void gmdf_emit(unsigned kind, unsigned a, unsigned b, float v);\n"
       << "#define GMDF_EMIT(k, a, b, v) gmdf_emit((k), (a), (b), (v))\n"
       << "#else\n"
       << "#define GMDF_EMIT(k, a, b, v) ((void)0)\n"
       << "#endif\n\n"
       << "static double gmdf_min(double a, double b) { return a < b ? a : b; }\n"
       << "static double gmdf_max(double a, double b) { return a > b ? a : b; }\n"
       << "static double gmdf_abs(double a) { return fabs(a); }\n"
       << "static double gmdf_clamp(double x, double lo, double hi)\n"
       << "{ return x < lo ? lo : (x > hi ? hi : x); }\n"
       << "static double gmdf_floor(double a) { return floor(a); }\n"
       << "static double gmdf_ceil(double a) { return ceil(a); }\n"
       << "static double gmdf_sqrt(double a) { return sqrt(a); }\n"
       << "static double gmdf_sin(double a) { return sin(a); }\n"
       << "static double gmdf_cos(double a) { return cos(a); }\n"
       << "static double gmdf_exp(double a) { return exp(a); }\n"
       << "static double gmdf_log(double a) { return log(a); }\n"
       << "static double gmdf_pow(double a, double b) { return pow(a, b); }\n"
       << "static double gmdf_sign(double a) { return a > 0 ? 1.0 : (a < 0 ? -1.0 : 0.0); }\n\n"
       << "/* Passive debug mirrors (JTAG watch targets). */\n"
       << ctx.mirrors.str() << "\n"
       << "typedef struct {\n"
       << ctx.fields.str() << "} " << actor_name << "_state_t;\n\n"
       << "void " << actor_name << "_init(" << actor_name << "_state_t* st) {\n"
       << "    /* zero everything, then apply non-zero initial values */\n"
       << "    char* p = (char*)st;\n"
       << "    for (unsigned i = 0; i < sizeof *st; ++i) p[i] = 0;\n"
       << ctx.init.str() << "}\n\n"
       << "void " << actor_name << "_step(" << actor_name
       << "_state_t* st, const double* in, double* out, double dt) {\n"
       << "    (void)in; (void)dt;\n"
       << ctx.step.str() << out_copy.str() << "}\n";

    if (options.test_main) {
        os << "\n#include <stdio.h>\n"
           << "int main(void) {\n"
           << "    static " << actor_name << "_state_t st;\n"
           << "    " << actor_name << "_init(&st);\n"
           << "    double in[" << std::max<std::size_t>(n_in, 1) << "], out["
           << std::max<std::size_t>(n_out, 1) << "];\n"
           << "    while (1) {\n"
           << "        for (unsigned i = 0; i < " << n_in << "; ++i)\n"
           << "            if (scanf(\"%lf\", &in[i]) != 1) return 0;\n"
           << "        " << actor_name << "_step(&st, in, out, " << fmt(options.dt) << ");\n"
           << "        for (unsigned i = 0; i < " << n_out << "; ++i)\n"
           << "            printf(\"%.12g \", out[i]);\n"
           << "        printf(\"\\n\");\n"
           << "    }\n"
           << "}\n";
    }
    return os.str();
}

} // namespace gmdf::codegen
