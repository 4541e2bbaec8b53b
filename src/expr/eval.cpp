#include "expr/eval.hpp"

#include <cmath>

#include "expr/vm.hpp"

namespace gmdf::expr {

namespace {

using meta::Value;

bool truthy(const Value& v) {
    if (v.is_bool()) return v.as_bool();
    if (v.is_int()) return v.as_int() != 0;
    if (v.is_real()) return v.as_real() != 0.0;
    throw EvalError("cannot use " + v.to_string() + " as a condition");
}

double numeric(const Value& v, const char* what) {
    if (v.is_int()) return static_cast<double>(v.as_int());
    if (v.is_real()) return v.as_real();
    if (v.is_bool()) return v.as_bool() ? 1.0 : 0.0;
    throw EvalError(std::string("operand of ") + what + " is not numeric: " + v.to_string());
}

bool both_int(const Value& a, const Value& b) { return a.is_int() && b.is_int(); }

Value arith(BinOp op, const Value& a, const Value& b) {
    if (both_int(a, b)) {
        std::int64_t x = a.as_int(), y = b.as_int();
        switch (op) {
        case BinOp::Add: return Value(x + y);
        case BinOp::Sub: return Value(x - y);
        case BinOp::Mul: return Value(x * y);
        case BinOp::Div:
            if (y == 0) throw EvalError("integer division by zero");
            return Value(x / y);
        case BinOp::Mod:
            if (y == 0) throw EvalError("integer modulo by zero");
            return Value(x % y);
        default: break;
        }
    }
    double x = numeric(a, "arithmetic"), y = numeric(b, "arithmetic");
    switch (op) {
    case BinOp::Add: return Value(x + y);
    case BinOp::Sub: return Value(x - y);
    case BinOp::Mul: return Value(x * y);
    case BinOp::Div: return Value(x / y); // IEEE semantics for real division
    case BinOp::Mod: return Value(std::fmod(x, y));
    default: throw EvalError("not an arithmetic operator");
    }
}

Value compare(BinOp op, const Value& a, const Value& b) {
    // Bool equality compares as bool; everything else numerically.
    if (a.is_bool() && b.is_bool() && (op == BinOp::Eq || op == BinOp::Ne)) {
        bool eq = a.as_bool() == b.as_bool();
        return Value(op == BinOp::Eq ? eq : !eq);
    }
    double x = numeric(a, "comparison"), y = numeric(b, "comparison");
    switch (op) {
    case BinOp::Lt: return Value(x < y);
    case BinOp::Le: return Value(x <= y);
    case BinOp::Gt: return Value(x > y);
    case BinOp::Ge: return Value(x >= y);
    case BinOp::Eq: return Value(x == y);
    case BinOp::Ne: return Value(x != y);
    default: throw EvalError("not a comparison operator");
    }
}

Value call_builtin(const std::string& fn, const std::vector<Value>& args) {
    auto need = [&](std::size_t n) {
        if (args.size() != n)
            throw EvalError("function '" + fn + "' expects " + std::to_string(n) +
                            " argument(s), got " + std::to_string(args.size()));
    };
    auto num = [&](std::size_t i) { return numeric(args[i], fn.c_str()); };

    if (fn == "min") {
        need(2);
        if (both_int(args[0], args[1]))
            return Value(std::min(args[0].as_int(), args[1].as_int()));
        return Value(std::min(num(0), num(1)));
    }
    if (fn == "max") {
        need(2);
        if (both_int(args[0], args[1]))
            return Value(std::max(args[0].as_int(), args[1].as_int()));
        return Value(std::max(num(0), num(1)));
    }
    if (fn == "abs") {
        need(1);
        if (args[0].is_int()) return Value(args[0].as_int() < 0 ? -args[0].as_int() : args[0].as_int());
        return Value(std::fabs(num(0)));
    }
    if (fn == "clamp") {
        need(3);
        // Not std::clamp: the bounds are operands, and lo > hi would be
        // undefined behaviour there. This form returns hi for lo > hi.
        if (both_int(args[0], args[1]) && args[2].is_int())
            return Value(std::min(std::max(args[0].as_int(), args[1].as_int()), args[2].as_int()));
        return Value(std::min(std::max(num(0), num(1)), num(2)));
    }
    if (fn == "floor") { need(1); return Value(std::floor(num(0))); }
    if (fn == "ceil") { need(1); return Value(std::ceil(num(0))); }
    if (fn == "sqrt") { need(1); return Value(std::sqrt(num(0))); }
    if (fn == "sin") { need(1); return Value(std::sin(num(0))); }
    if (fn == "cos") { need(1); return Value(std::cos(num(0))); }
    if (fn == "exp") { need(1); return Value(std::exp(num(0))); }
    if (fn == "log") { need(1); return Value(std::log(num(0))); }
    if (fn == "pow") { need(2); return Value(std::pow(num(0), num(1))); }
    if (fn == "sign") {
        need(1);
        double v = num(0);
        return Value(static_cast<std::int64_t>(v > 0 ? 1 : v < 0 ? -1 : 0));
    }
    throw EvalError("unknown function '" + fn + "'");
}

} // namespace

bool is_builtin(std::string_view fn) { return find_builtin(fn) != nullptr; }

Value eval(const Expr& e, const VarLookup& vars) {
    return std::visit(
        [&](const auto& n) -> Value {
            using T = std::decay_t<decltype(n)>;
            if constexpr (std::is_same_v<T, IntLit>) {
                return Value(n.value);
            } else if constexpr (std::is_same_v<T, RealLit>) {
                return Value(n.value);
            } else if constexpr (std::is_same_v<T, BoolLit>) {
                return Value(n.value);
            } else if constexpr (std::is_same_v<T, VarRef>) {
                Value v = vars(n.name);
                if (v.is_null()) throw EvalError("unknown variable '" + n.name + "'");
                return v;
            } else if constexpr (std::is_same_v<T, Unary>) {
                Value v = eval(*n.operand, vars);
                if (n.op == UnOp::Not) return Value(!truthy(v));
                if (v.is_int()) return Value(-v.as_int());
                return Value(-numeric(v, "negation"));
            } else if constexpr (std::is_same_v<T, Binary>) {
                // Short-circuit logical operators.
                if (n.op == BinOp::And) {
                    if (!truthy(eval(*n.lhs, vars))) return Value(false);
                    return Value(truthy(eval(*n.rhs, vars)));
                }
                if (n.op == BinOp::Or) {
                    if (truthy(eval(*n.lhs, vars))) return Value(true);
                    return Value(truthy(eval(*n.rhs, vars)));
                }
                Value a = eval(*n.lhs, vars);
                Value b = eval(*n.rhs, vars);
                switch (n.op) {
                case BinOp::Add: case BinOp::Sub: case BinOp::Mul:
                case BinOp::Div: case BinOp::Mod:
                    return arith(n.op, a, b);
                default:
                    return compare(n.op, a, b);
                }
            } else if constexpr (std::is_same_v<T, Conditional>) {
                return truthy(eval(*n.cond, vars)) ? eval(*n.then_e, vars)
                                                   : eval(*n.else_e, vars);
            } else if constexpr (std::is_same_v<T, Call>) {
                std::vector<Value> args;
                args.reserve(n.args.size());
                for (const auto& a : n.args) args.push_back(eval(*a, vars));
                return call_builtin(n.fn, args);
            }
        },
        e.node);
}

Value eval(const Expr& e, const std::map<std::string, meta::Value>& vars) {
    return eval(e, [&](std::string_view name) -> Value {
        auto it = vars.find(std::string(name));
        return it == vars.end() ? Value() : it->second;
    });
}

bool eval_bool(const Expr& e, const VarLookup& vars) { return truthy(eval(e, vars)); }

} // namespace gmdf::expr
