// Bytecode virtual machine for compiled GMDF expressions.
//
// expr::compile() (compile.hpp) lowers a parsed AST into a CompiledExpr:
// a flat instruction vector over a small operand stack, with variables
// resolved to integer slots at compile time and constants folded. The VM
// evaluates with zero per-eval allocation; hot-path errors are VmStatus
// result codes, never exceptions. expr::eval remains the reference
// tree-walk interpreter (differential testing, the p3 bench baseline);
// the VM is semantics-preserving against it bit for bit, including error
// classification and short-circuit evaluation (an unknown variable only
// faults if the instruction is actually reached).
//
// One interpreter loop serves both run() overloads: LoadSlot reads a
// tagged slot as it is and a double slot as Real, so neither overload
// copies its slots before it runs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gmdf::expr {

/// VM opcodes. `a`/`b` operand meaning per op is documented inline.
enum class Op : std::uint8_t {
    PushConst, ///< push constant-pool entry a
    LoadSlot,  ///< push slots[a]
    Neg,       ///< arithmetic negation (Int stays Int)
    Not,       ///< logical not -> Bool
    Truthy,    ///< coerce top to Bool (And/Or result normalization)
    Add, Sub, Mul, Div, Mod,
    Lt, Le, Gt, Ge, Eq, Ne,
    Jump,      ///< pc = a
    BrFalse,   ///< pop; if !truthy pc = a
    BrTrue,    ///< pop; if truthy pc = a
    Call,      ///< builtin a over top b args (arity pre-checked)
    Fail,      ///< return status a (b = name index for diagnostics)
    Ret,       ///< return top of stack
};

/// Builtin function ids (operand `a` of Op::Call).
enum class Builtin : std::uint8_t {
    Min, Max, Abs, Clamp, Floor, Ceil, Sqrt, Sin, Cos, Exp, Log, Pow, Sign,
};

/// One registry entry; the single source of truth for builtin names and
/// arities, shared by the compiler, the VM, and expr::is_builtin.
struct BuiltinSpec {
    std::string_view name;
    Builtin id;
    int arity;
};

/// All builtins, in Builtin declaration order.
[[nodiscard]] std::span<const BuiltinSpec> builtins();

/// Registry lookup; nullptr when `name` is not a builtin.
[[nodiscard]] const BuiltinSpec* find_builtin(std::string_view name);

/// Hot-path result codes; mirrors the EvalError classes of the reference
/// interpreter (compile+run matches eval on classification, not just on
/// values).
enum class VmStatus : std::uint8_t {
    Ok,
    DivByZero,  ///< integer division/modulo by zero
    UnknownVar, ///< variable with no slot was reached
    BadCall,    ///< unknown function or wrong argument count was reached
    TypeError,  ///< slot span shorter than the program's slot count
};

[[nodiscard]] const char* to_string(VmStatus s);

/// Unboxed tagged value: the VM's working representation. Restricted to
/// the three kinds expression evaluation can produce.
struct VmValue {
    enum class Tag : std::uint8_t { Bool, Int, Real };

    Tag tag = Tag::Int;
    union {
        bool b;
        std::int64_t i;
        double d;
    };

    VmValue() : i(0) {}

    [[nodiscard]] static VmValue of_bool(bool v) {
        VmValue x; x.tag = Tag::Bool; x.b = v; return x;
    }
    [[nodiscard]] static VmValue of_int(std::int64_t v) {
        VmValue x; x.tag = Tag::Int; x.i = v; return x;
    }
    [[nodiscard]] static VmValue of_real(double v) {
        VmValue x; x.tag = Tag::Real; x.d = v; return x;
    }

    [[nodiscard]] bool is_bool() const { return tag == Tag::Bool; }
    [[nodiscard]] bool is_int() const { return tag == Tag::Int; }
    [[nodiscard]] bool is_real() const { return tag == Tag::Real; }

    /// Numeric coercion, matching meta::Value::as_number.
    [[nodiscard]] double as_number() const {
        switch (tag) {
        case Tag::Bool: return b ? 1.0 : 0.0;
        case Tag::Int: return static_cast<double>(i);
        case Tag::Real: return d;
        }
        return 0.0;
    }

    /// Truthiness, matching the reference interpreter.
    [[nodiscard]] bool truthy() const {
        switch (tag) {
        case Tag::Bool: return b;
        case Tag::Int: return i != 0;
        case Tag::Real: return d != 0.0;
        }
        return false;
    }
};

/// One fixed-size instruction.
struct Insn {
    Op op;
    std::int32_t a = 0;
    std::int32_t b = 0;
};

/// Single source of truth for operator semantics, shared by the VM's
/// loop and the compiler's constant folder (so a folded constant
/// is bit-identical to the value the instruction would have produced).
namespace vmops {
/// Int op Int stays Int; Div/Mod by integer zero reports DivByZero
/// (and leaves `out` untouched).
VmStatus arith(Op op, const VmValue& a, const VmValue& b, VmValue& out);
/// Bool==Bool compares as bool; everything else numerically.
[[nodiscard]] VmValue compare(Op op, const VmValue& a, const VmValue& b);
/// Builtin over `argc` values at `args`; arity must already be correct.
[[nodiscard]] VmValue call_builtin(Builtin fn, const VmValue* args, int argc);
} // namespace vmops

/// A compiled, immutable expression program. Movable and copyable; safe
/// to evaluate concurrently from multiple threads (run() is const and
/// allocation-free for programs within the inline stack budget, which
/// compile() guarantees for any expression it accepts).
class CompiledExpr {
public:
    CompiledExpr() = default;

    /// Evaluates over tagged slot values (slot i = the variable the
    /// compiler resolved to i). Exact Int/Real/Bool semantics.
    VmStatus run(std::span<const VmValue> slots, VmValue& out) const;

    /// Evaluates with every slot holding Real(slots[i]); `out` receives
    /// the result coerced through as_number().
    VmStatus run(std::span<const double> slots, double& out) const;

    /// True when constant folding reduced the whole program to one
    /// PushConst (evaluation cannot fault and ignores slots).
    [[nodiscard]] bool is_constant() const;

    /// Number of slots the program may read; run() requires at least
    /// this many.
    [[nodiscard]] std::size_t slot_count() const { return slot_count_; }

    [[nodiscard]] const std::vector<Insn>& code() const { return code_; }

    /// Human-readable listing, one instruction per line (tests, tracing).
    [[nodiscard]] std::string disassemble() const;

private:
    friend class Compiler;

    /// The interpreter loop behind both run() overloads.
    template <class Slot>
    VmStatus exec(std::span<const Slot> slots, VmValue& out) const;

    std::vector<Insn> code_;
    std::vector<VmValue> consts_;
    std::vector<std::string> names_; ///< diagnostic names (Fail operand b)
    std::uint32_t max_stack_ = 0;
    std::uint32_t slot_count_ = 0;
};

} // namespace gmdf::expr
