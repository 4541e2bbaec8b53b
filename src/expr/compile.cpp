#include "expr/compile.hpp"

#include <bit>
#include <optional>

#include "expr/parser.hpp"

namespace gmdf::expr {

namespace {

bool const_eq(const VmValue& a, const VmValue& b) {
    if (a.tag != b.tag) return false;
    switch (a.tag) {
    case VmValue::Tag::Bool: return a.b == b.b;
    case VmValue::Tag::Int: return a.i == b.i;
    case VmValue::Tag::Real:
        return std::bit_cast<std::uint64_t>(a.d) == std::bit_cast<std::uint64_t>(b.d);
    }
    return false;
}

Op bin_op(BinOp op) {
    switch (op) {
    case BinOp::Add: return Op::Add;
    case BinOp::Sub: return Op::Sub;
    case BinOp::Mul: return Op::Mul;
    case BinOp::Div: return Op::Div;
    case BinOp::Mod: return Op::Mod;
    case BinOp::Lt: return Op::Lt;
    case BinOp::Le: return Op::Le;
    case BinOp::Gt: return Op::Gt;
    case BinOp::Ge: return Op::Ge;
    case BinOp::Eq: return Op::Eq;
    case BinOp::Ne: return Op::Ne;
    case BinOp::And: return Op::BrFalse; // never emitted directly
    case BinOp::Or: return Op::BrTrue;   // never emitted directly
    }
    return Op::Ret;
}

bool is_arith(BinOp op) {
    return op == BinOp::Add || op == BinOp::Sub || op == BinOp::Mul ||
           op == BinOp::Div || op == BinOp::Mod;
}

} // namespace

/// Named at namespace scope (not file-local) so the friend declaration
/// in CompiledExpr applies.
class Compiler {
public:
    explicit Compiler(const SlotResolver& slots) : resolver_(slots) {}

    CompiledExpr compile(const Expr& e) {
        gen_mat(e);
        emit(Op::Ret);
        prog_.max_stack_ = max_depth_;
        return std::move(prog_);
    }

private:
    // ---- pure constant folding (no emission) ---------------------------

    /// Folds `e` to a constant when every reachable part is constant and
    /// folding cannot fault; faulting folds (1/0) and traps (unknown
    /// variable/function) stay unfolded so they fault at run time.
    std::optional<VmValue> try_fold(const Expr& e) {
        if (const auto* n = std::get_if<IntLit>(&e.node)) return VmValue::of_int(n->value);
        if (const auto* n = std::get_if<RealLit>(&e.node)) return VmValue::of_real(n->value);
        if (const auto* n = std::get_if<BoolLit>(&e.node)) return VmValue::of_bool(n->value);
        if (std::holds_alternative<VarRef>(e.node)) return std::nullopt;
        if (const auto* n = std::get_if<Unary>(&e.node)) {
            auto v = try_fold(*n->operand);
            if (!v) return std::nullopt;
            if (n->op == UnOp::Not) return VmValue::of_bool(!v->truthy());
            return v->is_int() ? VmValue::of_int(-v->i) : VmValue::of_real(-v->as_number());
        }
        if (const auto* n = std::get_if<Binary>(&e.node)) {
            auto l = try_fold(*n->lhs);
            if (!l) return std::nullopt;
            if (n->op == BinOp::And) {
                if (!l->truthy()) return VmValue::of_bool(false); // rhs never evaluated
                auto r = try_fold(*n->rhs);
                if (!r) return std::nullopt;
                return VmValue::of_bool(r->truthy());
            }
            if (n->op == BinOp::Or) {
                if (l->truthy()) return VmValue::of_bool(true);
                auto r = try_fold(*n->rhs);
                if (!r) return std::nullopt;
                return VmValue::of_bool(r->truthy());
            }
            auto r = try_fold(*n->rhs);
            if (!r) return std::nullopt;
            if (is_arith(n->op)) {
                VmValue out;
                if (vmops::arith(bin_op(n->op), *l, *r, out) != VmStatus::Ok)
                    return std::nullopt; // fault stays a runtime result code
                return out;
            }
            return vmops::compare(bin_op(n->op), *l, *r);
        }
        if (const auto* n = std::get_if<Conditional>(&e.node)) {
            auto c = try_fold(*n->cond);
            if (!c) return std::nullopt;
            return try_fold(c->truthy() ? *n->then_e : *n->else_e);
        }
        if (const auto* n = std::get_if<Call>(&e.node)) {
            const BuiltinSpec* spec = find_builtin(n->fn);
            if (spec == nullptr || static_cast<int>(n->args.size()) != spec->arity)
                return std::nullopt; // trap stays a runtime result code
            VmValue args[4];
            for (std::size_t i = 0; i < n->args.size(); ++i) {
                auto v = try_fold(*n->args[i]);
                if (!v) return std::nullopt;
                args[i] = *v;
            }
            return vmops::call_builtin(spec->id, args, spec->arity);
        }
        return std::nullopt;
    }

    // ---- emission ------------------------------------------------------

    void emit(Op op, std::int32_t a = 0, std::int32_t b = 0) {
        prog_.code_.push_back({op, a, b});
    }

    void note_push() {
        if (++depth_ > max_depth_) max_depth_ = depth_;
    }

    void push_const(const VmValue& v) {
        std::int32_t idx = -1;
        for (std::size_t i = 0; i < prog_.consts_.size(); ++i)
            if (const_eq(prog_.consts_[i], v)) { idx = static_cast<std::int32_t>(i); break; }
        if (idx < 0) {
            idx = static_cast<std::int32_t>(prog_.consts_.size());
            prog_.consts_.push_back(v);
        }
        emit(Op::PushConst, idx);
        note_push();
    }

    /// Emits a trap; statically accounted as pushing the (never produced)
    /// result so stack bookkeeping stays consistent.
    void emit_fail(VmStatus status, const std::string& name) {
        std::int32_t idx = static_cast<std::int32_t>(prog_.names_.size());
        prog_.names_.push_back(name);
        emit(Op::Fail, static_cast<std::int32_t>(status), idx);
        note_push();
    }

    std::size_t emit_branch(Op op) {
        emit(op);
        --depth_; // branches consume the condition
        return prog_.code_.size() - 1;
    }

    void patch(std::size_t insn) {
        prog_.code_[insn].a = static_cast<std::int32_t>(prog_.code_.size());
    }

    /// Generates code leaving one value on the stack; folded constants
    /// are pushed.
    void gen_mat(const Expr& e) {
        if (std::optional<VmValue> folded = gen(e)) push_const(*folded);
    }

    /// Generates one subtree: either emits code that leaves exactly one
    /// value on the stack and returns nullopt, or emits NOTHING and
    /// returns the folded constant.
    std::optional<VmValue> gen(const Expr& e) {
        if (auto cv = try_fold(e)) return cv;

        if (const auto* n = std::get_if<VarRef>(&e.node)) {
            int slot = resolver_(n->name);
            if (slot < 0) {
                emit_fail(VmStatus::UnknownVar, n->name);
                return {};
            }
            emit(Op::LoadSlot, slot);
            note_push();
            if (static_cast<std::uint32_t>(slot) + 1 > prog_.slot_count_)
                prog_.slot_count_ = static_cast<std::uint32_t>(slot) + 1;
            return {};
        }

        if (const auto* n = std::get_if<Unary>(&e.node)) {
            gen_mat(*n->operand);
            emit(n->op == UnOp::Not ? Op::Not : Op::Neg);
            return {};
        }

        if (const auto* n = std::get_if<Binary>(&e.node)) {
            if (n->op == BinOp::And || n->op == BinOp::Or) return gen_logic(*n);
            gen_mat(*n->lhs);
            gen_mat(*n->rhs);
            emit(bin_op(n->op));
            --depth_;
            return {};
        }

        if (const auto* n = std::get_if<Conditional>(&e.node)) {
            if (auto c = try_fold(*n->cond))
                return gen(c->truthy() ? *n->then_e : *n->else_e);
            gen_mat(*n->cond);
            std::size_t br = emit_branch(Op::BrFalse);
            std::uint32_t base = depth_;
            gen_mat(*n->then_e);
            std::size_t jmp = prog_.code_.size();
            emit(Op::Jump);
            patch(br);
            depth_ = base; // else branch starts at the pre-then depth
            gen_mat(*n->else_e);
            patch(jmp);
            return {};
        }

        if (const auto* n = std::get_if<Call>(&e.node)) {
            const BuiltinSpec* spec = find_builtin(n->fn);
            for (const ExprPtr& arg : n->args) gen_mat(*arg);
            if (spec == nullptr || static_cast<int>(n->args.size()) != spec->arity) {
                // The interpreter evaluates arguments before discovering
                // the bad call, so the trap comes after the argument code.
                depth_ -= static_cast<std::uint32_t>(n->args.size());
                emit_fail(VmStatus::BadCall, n->fn);
                return {};
            }
            emit(Op::Call, static_cast<std::int32_t>(spec->id),
                 static_cast<std::int32_t>(spec->arity));
            depth_ -= static_cast<std::uint32_t>(spec->arity) - 1;
            return {};
        }

        // Literals are always folded by try_fold; unreachable.
        return {};
    }

    /// Short-circuit And/Or lowering. try_fold already handled the
    /// constant-lhs-falsy (And) / truthy (Or) cases where the whole
    /// node folds; a constant lhs that passes the gate reduces to
    /// Truthy(rhs).
    std::optional<VmValue> gen_logic(const Binary& n) {
        bool is_and = n.op == BinOp::And;
        if (auto l = try_fold(*n.lhs)) {
            // Gate passed (else try_fold would have folded the node).
            gen_mat(*n.rhs);
            emit(Op::Truthy);
            return {};
        }
        gen_mat(*n.lhs);
        std::size_t br = emit_branch(is_and ? Op::BrFalse : Op::BrTrue);
        std::uint32_t base = depth_;
        gen_mat(*n.rhs);
        emit(Op::Truthy);
        std::size_t jmp = prog_.code_.size();
        emit(Op::Jump);
        patch(br);
        depth_ = base;
        push_const(VmValue::of_bool(!is_and));
        patch(jmp);
        return {};
    }

    CompiledExpr prog_;
    const SlotResolver& resolver_;
    std::uint32_t depth_ = 0;
    std::uint32_t max_depth_ = 0;
};

CompiledExpr compile(const Expr& e, const SlotResolver& slots) {
    return Compiler(slots).compile(e);
}

CompiledExpr compile(const Expr& e, std::span<const std::string> slot_names) {
    return compile(e, [&](std::string_view name) -> int {
        for (std::size_t i = 0; i < slot_names.size(); ++i)
            if (slot_names[i] == name) return static_cast<int>(i);
        return -1;
    });
}

CompiledExpr compile(std::string_view src, std::span<const std::string> slot_names) {
    auto ast = parse(src);
    return compile(*ast, slot_names);
}

} // namespace gmdf::expr
