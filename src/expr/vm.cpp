#include "expr/vm.hpp"

#include <algorithm>
#include <cmath>

namespace gmdf::expr {

namespace {

/// Stack frames this deep live on the C stack; compile() keeps typical
/// expressions far below this, and deeper programs fall back to a heap
/// buffer (still correct, one allocation per run).
constexpr std::uint32_t kInlineStack = 64;

double numeric(const VmValue& v) { return v.as_number(); }

bool both_int(const VmValue& a, const VmValue& b) { return a.is_int() && b.is_int(); }

/// LoadSlot's view of a slot: a tagged slot as it is, a double slot as
/// Real.
VmValue load(const VmValue& v) { return v; }
VmValue load(double d) { return VmValue::of_real(d); }

} // namespace

namespace vmops {

/// Tagged arithmetic, mirroring the reference interpreter: Int op Int
/// stays Int (C semantics), anything else promotes to Real.
VmStatus arith(Op op, const VmValue& a, const VmValue& b, VmValue& out) {
    if (both_int(a, b)) {
        std::int64_t x = a.i, y = b.i;
        switch (op) {
        case Op::Add: out = VmValue::of_int(x + y); return VmStatus::Ok;
        case Op::Sub: out = VmValue::of_int(x - y); return VmStatus::Ok;
        case Op::Mul: out = VmValue::of_int(x * y); return VmStatus::Ok;
        case Op::Div:
            if (y == 0) return VmStatus::DivByZero;
            out = VmValue::of_int(x / y);
            return VmStatus::Ok;
        case Op::Mod:
            if (y == 0) return VmStatus::DivByZero;
            out = VmValue::of_int(x % y);
            return VmStatus::Ok;
        default: break;
        }
    }
    double x = numeric(a), y = numeric(b);
    switch (op) {
    case Op::Add: out = VmValue::of_real(x + y); break;
    case Op::Sub: out = VmValue::of_real(x - y); break;
    case Op::Mul: out = VmValue::of_real(x * y); break;
    case Op::Div: out = VmValue::of_real(x / y); break; // IEEE real division
    case Op::Mod: out = VmValue::of_real(std::fmod(x, y)); break;
    default: return VmStatus::TypeError;
    }
    return VmStatus::Ok;
}

/// Tagged comparison: Bool equality compares as bool, everything else
/// numerically (exactly as the interpreter's compare()).
VmValue compare(Op op, const VmValue& a, const VmValue& b) {
    if (a.is_bool() && b.is_bool() && (op == Op::Eq || op == Op::Ne)) {
        bool eq = a.b == b.b;
        return VmValue::of_bool(op == Op::Eq ? eq : !eq);
    }
    double x = numeric(a), y = numeric(b);
    switch (op) {
    case Op::Lt: return VmValue::of_bool(x < y);
    case Op::Le: return VmValue::of_bool(x <= y);
    case Op::Gt: return VmValue::of_bool(x > y);
    case Op::Ge: return VmValue::of_bool(x >= y);
    case Op::Eq: return VmValue::of_bool(x == y);
    default: return VmValue::of_bool(x != y);
    }
}

/// Tagged builtin call over `argc` stack values ending at `args`;
/// arity is guaranteed by the compiler. Mirrors call_builtin().
VmValue call_builtin(Builtin fn, const VmValue* args, int argc) {
    (void)argc;
    auto num = [&](int i) { return numeric(args[i]); };
    switch (fn) {
    case Builtin::Min:
        if (both_int(args[0], args[1]))
            return VmValue::of_int(std::min(args[0].i, args[1].i));
        return VmValue::of_real(std::min(num(0), num(1)));
    case Builtin::Max:
        if (both_int(args[0], args[1]))
            return VmValue::of_int(std::max(args[0].i, args[1].i));
        return VmValue::of_real(std::max(num(0), num(1)));
    case Builtin::Abs:
        if (args[0].is_int())
            return VmValue::of_int(args[0].i < 0 ? -args[0].i : args[0].i);
        return VmValue::of_real(std::fabs(num(0)));
    case Builtin::Clamp:
        // Same min/max form as the tree-walk evaluator (hi wins when
        // lo > hi), never std::clamp.
        if (both_int(args[0], args[1]) && args[2].is_int())
            return VmValue::of_int(std::min(std::max(args[0].i, args[1].i), args[2].i));
        return VmValue::of_real(std::min(std::max(num(0), num(1)), num(2)));
    case Builtin::Floor: return VmValue::of_real(std::floor(num(0)));
    case Builtin::Ceil: return VmValue::of_real(std::ceil(num(0)));
    case Builtin::Sqrt: return VmValue::of_real(std::sqrt(num(0)));
    case Builtin::Sin: return VmValue::of_real(std::sin(num(0)));
    case Builtin::Cos: return VmValue::of_real(std::cos(num(0)));
    case Builtin::Exp: return VmValue::of_real(std::exp(num(0)));
    case Builtin::Log: return VmValue::of_real(std::log(num(0)));
    case Builtin::Pow: return VmValue::of_real(std::pow(num(0), num(1)));
    case Builtin::Sign: {
        double v = num(0);
        return VmValue::of_int(v > 0 ? 1 : v < 0 ? -1 : 0);
    }
    }
    return VmValue::of_int(0);
}

} // namespace vmops

namespace {

using vmops::arith;
using vmops::call_builtin;
using vmops::compare;

const char* op_name(Op op) {
    switch (op) {
    case Op::PushConst: return "push";
    case Op::LoadSlot: return "load";
    case Op::Neg: return "neg";
    case Op::Not: return "not";
    case Op::Truthy: return "truthy";
    case Op::Add: return "add";
    case Op::Sub: return "sub";
    case Op::Mul: return "mul";
    case Op::Div: return "div";
    case Op::Mod: return "mod";
    case Op::Lt: return "lt";
    case Op::Le: return "le";
    case Op::Gt: return "gt";
    case Op::Ge: return "ge";
    case Op::Eq: return "eq";
    case Op::Ne: return "ne";
    case Op::Jump: return "jump";
    case Op::BrFalse: return "brfalse";
    case Op::BrTrue: return "brtrue";
    case Op::Call: return "call";
    case Op::Fail: return "fail";
    case Op::Ret: return "ret";
    }
    return "?";
}

} // namespace

namespace {

constexpr BuiltinSpec kBuiltins[] = {
    {"min", Builtin::Min, 2},     {"max", Builtin::Max, 2},
    {"abs", Builtin::Abs, 1},     {"clamp", Builtin::Clamp, 3},
    {"floor", Builtin::Floor, 1}, {"ceil", Builtin::Ceil, 1},
    {"sqrt", Builtin::Sqrt, 1},   {"sin", Builtin::Sin, 1},
    {"cos", Builtin::Cos, 1},     {"exp", Builtin::Exp, 1},
    {"log", Builtin::Log, 1},     {"pow", Builtin::Pow, 2},
    {"sign", Builtin::Sign, 1},
};

} // namespace

std::span<const BuiltinSpec> builtins() { return kBuiltins; }

const BuiltinSpec* find_builtin(std::string_view name) {
    for (const auto& b : kBuiltins)
        if (b.name == name) return &b;
    return nullptr;
}

const char* to_string(VmStatus s) {
    switch (s) {
    case VmStatus::Ok: return "ok";
    case VmStatus::DivByZero: return "integer division or modulo by zero";
    case VmStatus::UnknownVar: return "unknown variable";
    case VmStatus::BadCall: return "unknown function or bad argument count";
    case VmStatus::TypeError: return "type error";
    }
    return "?";
}

template <class Slot>
VmStatus CompiledExpr::exec(std::span<const Slot> slots, VmValue& out) const {
    if (slots.size() < slot_count_) return VmStatus::TypeError;
    // Left uninitialized: compile() proves every entry is pushed before
    // it is read, and zeroing all kInlineStack entries would cost more
    // than a typical guard's whole evaluation.
    union InlineStack {
        InlineStack() {}
        VmValue v[kInlineStack];
    } inline_buf;
    std::vector<VmValue> heap_buf;
    VmValue* st = inline_buf.v;
    if (max_stack_ > kInlineStack) {
        heap_buf.resize(max_stack_);
        st = heap_buf.data();
    }
    std::size_t sp = 0;
    const Insn* code = code_.data();
    const std::size_t n = code_.size();
    for (std::size_t pc = 0; pc < n; ++pc) {
        const Insn& in = code[pc];
        switch (in.op) {
        case Op::PushConst: st[sp++] = consts_[static_cast<std::size_t>(in.a)]; break;
        case Op::LoadSlot: st[sp++] = load(slots[static_cast<std::size_t>(in.a)]); break;
        case Op::Neg: {
            VmValue& v = st[sp - 1];
            v = v.is_int() ? VmValue::of_int(-v.i) : VmValue::of_real(-numeric(v));
            break;
        }
        case Op::Not: st[sp - 1] = VmValue::of_bool(!st[sp - 1].truthy()); break;
        case Op::Truthy: st[sp - 1] = VmValue::of_bool(st[sp - 1].truthy()); break;
        case Op::Add: case Op::Sub: case Op::Mul: case Op::Div: case Op::Mod: {
            VmStatus s = arith(in.op, st[sp - 2], st[sp - 1], st[sp - 2]);
            if (s != VmStatus::Ok) return s;
            --sp;
            break;
        }
        case Op::Lt: case Op::Le: case Op::Gt: case Op::Ge: case Op::Eq: case Op::Ne:
            st[sp - 2] = compare(in.op, st[sp - 2], st[sp - 1]);
            --sp;
            break;
        case Op::Jump: pc = static_cast<std::size_t>(in.a) - 1; break;
        case Op::BrFalse:
            if (!st[--sp].truthy()) pc = static_cast<std::size_t>(in.a) - 1;
            break;
        case Op::BrTrue:
            if (st[--sp].truthy()) pc = static_cast<std::size_t>(in.a) - 1;
            break;
        case Op::Call: {
            int argc = in.b;
            sp -= static_cast<std::size_t>(argc);
            st[sp] = call_builtin(static_cast<Builtin>(in.a), st + sp, argc);
            ++sp;
            break;
        }
        case Op::Fail: return static_cast<VmStatus>(in.a);
        case Op::Ret: out = st[sp - 1]; return VmStatus::Ok;
        }
    }
    return VmStatus::TypeError; // fell off the end: malformed program
}

VmStatus CompiledExpr::run(std::span<const VmValue> slots, VmValue& out) const {
    return exec(slots, out);
}

VmStatus CompiledExpr::run(std::span<const double> slots, double& out) const {
    VmValue v;
    VmStatus s = exec(slots, v);
    if (s == VmStatus::Ok) out = v.as_number();
    return s;
}

bool CompiledExpr::is_constant() const {
    return code_.size() == 2 && code_[0].op == Op::PushConst && code_[1].op == Op::Ret;
}

std::string CompiledExpr::disassemble() const {
    std::string out;
    for (std::size_t pc = 0; pc < code_.size(); ++pc) {
        const Insn& in = code_[pc];
        out += std::to_string(pc);
        out += ": ";
        out += op_name(in.op);
        switch (in.op) {
        case Op::PushConst: {
            const VmValue& c = consts_[static_cast<std::size_t>(in.a)];
            out += c.is_bool() ? (c.b ? " true" : " false")
                 : c.is_int() ? " " + std::to_string(c.i)
                              : " " + std::to_string(c.d);
            break;
        }
        case Op::LoadSlot:
            out += " #" + std::to_string(in.a);
            break;
        case Op::Jump: case Op::BrFalse: case Op::BrTrue:
            out += " @" + std::to_string(in.a);
            break;
        case Op::Call:
            out += " fn" + std::to_string(in.a) + "/" + std::to_string(in.b);
            break;
        case Op::Fail:
            out += std::string(" ") + to_string(static_cast<VmStatus>(in.a));
            if (static_cast<std::size_t>(in.b) < names_.size())
                out += " '" + names_[static_cast<std::size_t>(in.b)] + "'";
            break;
        default: break;
        }
        out += "\n";
    }
    return out;
}

} // namespace gmdf::expr
