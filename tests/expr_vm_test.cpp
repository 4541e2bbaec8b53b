// Tests for the expression bytecode compiler + VM (expr/compile, expr/vm).
//
// The centerpiece is a differential fuzz test: random ASTs evaluated by
// compile+run must match the reference tree-walk interpreter bit for bit
// — on results (kind AND bit pattern, so Int/Real promotion and -0.0/NaN
// survive) and on error classification (div-by-zero, unknown variable,
// bad call), with the VM reporting result codes where the interpreter
// throws. Plus unit cases for constant folding, slot resolution, the
// short-circuit trap rule, and the double-slot run() overload, which
// runs the same loop with every slot read as Real.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <random>

#include "expr/compile.hpp"
#include "expr/eval.hpp"
#include "expr/parser.hpp"

namespace ge = gmdf::expr;
using gmdf::meta::Value;

namespace {

// ---- AST construction helpers ----------------------------------------------

ge::ExprPtr node(auto&& n) {
    auto e = std::make_unique<ge::Expr>();
    e->node = std::forward<decltype(n)>(n);
    return e;
}

ge::ExprPtr lit(std::int64_t v) { return node(ge::IntLit{v}); }
ge::ExprPtr lit(double v) { return node(ge::RealLit{v}); }
ge::ExprPtr lit(bool v) { return node(ge::BoolLit{v}); }
ge::ExprPtr var(std::string name) { return node(ge::VarRef{std::move(name)}); }

// ---- reference outcome ------------------------------------------------------

struct Outcome {
    ge::VmStatus status = ge::VmStatus::Ok;
    Value value;
};

/// Maps the interpreter's EvalError messages onto VM result codes.
ge::VmStatus classify(const std::string& message) {
    if (message.find("by zero") != std::string::npos) return ge::VmStatus::DivByZero;
    if (message.find("unknown variable") != std::string::npos)
        return ge::VmStatus::UnknownVar;
    if (message.find("unknown function") != std::string::npos ||
        message.find("expects") != std::string::npos)
        return ge::VmStatus::BadCall;
    return ge::VmStatus::TypeError;
}

Outcome reference(const ge::Expr& e, const std::map<std::string, Value>& env) {
    try {
        return {ge::VmStatus::Ok, ge::eval(e, env)};
    } catch (const ge::EvalError& ex) {
        return {classify(ex.what()), Value()};
    }
}

/// Exact (bitwise for reals) equality between an interpreter Value and a
/// VM value.
bool same_value(const Value& a, const ge::VmValue& b) {
    if (a.is_bool()) return b.is_bool() && a.as_bool() == b.b;
    if (a.is_int()) return b.is_int() && a.as_int() == b.i;
    if (a.is_real())
        return b.is_real() && std::bit_cast<std::uint64_t>(a.as_real()) ==
                                  std::bit_cast<std::uint64_t>(b.d);
    return false;
}

std::string describe(const ge::VmValue& v) {
    if (v.is_bool()) return v.b ? "bool true" : "bool false";
    if (v.is_int()) return "int " + std::to_string(v.i);
    return "real " + std::to_string(v.d);
}

// ---- random AST generator ---------------------------------------------------

const std::vector<std::string>& slot_names() {
    static const std::vector<std::string> names{"x", "y", "z", "b"};
    return names;
}

class AstGen {
public:
    explicit AstGen(std::uint32_t seed) : rng_(seed) {}

    ge::ExprPtr gen(int depth) {
        if (depth <= 0 || pick(4) == 0) return leaf();
        switch (pick(8)) {
        case 0: case 1: case 2: { // binary
            auto op = static_cast<ge::BinOp>(pick(13));
            return node(ge::Binary{op, gen(depth - 1), gen(depth - 1)});
        }
        case 3: { // unary
            auto op = pick(2) == 0 ? ge::UnOp::Neg : ge::UnOp::Not;
            return node(ge::Unary{op, gen(depth - 1)});
        }
        case 4: { // conditional
            ge::Conditional c{gen(depth - 1), gen(depth - 1), gen(depth - 1)};
            return node(std::move(c));
        }
        default: return call(depth);
        }
    }

    /// A random environment over the slot variables (plus nothing else,
    /// so the occasional "mystery" VarRef is unknown to both engines).
    std::map<std::string, Value> env() {
        std::map<std::string, Value> out;
        for (const auto& name : slot_names()) out[name] = value();
        return out;
    }

    std::map<std::string, Value> real_env() {
        std::map<std::string, Value> out;
        for (const auto& name : slot_names()) out[name] = Value(real());
        return out;
    }

private:
    int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

    // Integer literals stay small so Int-Int multiplication chains cannot
    // overflow int64 (signed overflow is UB in both engines).
    std::int64_t small_int() { return pick(7) - 3; }

    double real() {
        static const double pool[] = {0.0, 1.0, -1.0, 0.5, -2.5, 3.25, 40.0, 1e9};
        return pool[pick(8)];
    }

    Value value() {
        switch (pick(3)) {
        case 0: return Value(small_int());
        case 1: return Value(real());
        default: return Value(pick(2) == 0);
        }
    }

    ge::ExprPtr leaf() {
        switch (pick(8)) {
        case 0: case 1: return lit(small_int());
        case 2: return lit(real());
        case 3: return lit(pick(2) == 0);
        case 4: return var("mystery"); // unknown everywhere
        default: return var(slot_names()[static_cast<std::size_t>(pick(4))]);
        }
    }

    ge::ExprPtr call(int depth) {
        struct Fn { const char* name; int arity; };
        static const Fn fns[] = {{"min", 2}, {"max", 2}, {"abs", 1},  {"clamp", 3},
                                 {"floor", 1}, {"ceil", 1}, {"sqrt", 1}, {"sin", 1},
                                 {"cos", 1}, {"exp", 1}, {"log", 1}, {"pow", 2},
                                 {"sign", 1}};
        Fn fn = fns[pick(13)];
        int arity = fn.arity;
        std::string name = fn.name;
        if (pick(20) == 0) name = "nosuchfn";        // unknown function
        else if (pick(20) == 0) arity = arity % 3 + 1; // wrong arity sometimes
        ge::Call c{std::move(name), {}};
        for (int i = 0; i < arity; ++i) c.args.push_back(gen(depth - 1));
        return node(std::move(c));
    }

    std::mt19937 rng_;
};

// ---- differential fuzz ------------------------------------------------------

TEST(VmDifferential, RandomAstsMatchInterpreterBitForBit) {
    AstGen gen(20260728);
    int faults_seen = 0;
    for (int round = 0; round < 1500; ++round) {
        ge::ExprPtr ast = gen.gen(5);
        ge::CompiledExpr ce = ge::compile(*ast, slot_names());
        for (int trial = 0; trial < 3; ++trial) {
            auto env = gen.env();
            Outcome want = reference(*ast, env);
            ge::VmValue slots[4];
            for (std::size_t i = 0; i < 4; ++i) {
                const Value& v = env.at(slot_names()[i]);
                slots[i] = v.is_bool()  ? ge::VmValue::of_bool(v.as_bool())
                           : v.is_int() ? ge::VmValue::of_int(v.as_int())
                                        : ge::VmValue::of_real(v.as_real());
            }
            ge::VmValue got;
            ge::VmStatus st = ce.run(slots, got);
            ASSERT_EQ(st, want.status)
                << ge::to_string(*ast) << "\n" << ce.disassemble();
            if (st != ge::VmStatus::Ok) {
                ++faults_seen;
                continue;
            }
            ASSERT_TRUE(same_value(want.value, got))
                << ge::to_string(*ast) << "\n= " << want.value.to_string() << " vs "
                << describe(got) << "\n" << ce.disassemble();
        }
    }
    // The generator must actually exercise the error paths.
    EXPECT_GT(faults_seen, 50);
}

TEST(VmDifferential, DoublePathMatchesInterpreterOnRealSlots) {
    AstGen gen(424242);
    for (int round = 0; round < 1500; ++round) {
        ge::ExprPtr ast = gen.gen(5);
        ge::CompiledExpr ce = ge::compile(*ast, slot_names());
        auto env = gen.real_env();
        double slots[4];
        for (std::size_t i = 0; i < 4; ++i) slots[i] = env.at(slot_names()[i]).as_real();
        Outcome want = reference(*ast, env);
        double got = 0.0;
        ge::VmStatus st = ce.run(std::span<const double>(slots, 4), got);
        ASSERT_EQ(st, want.status) << ge::to_string(*ast) << "\n" << ce.disassemble();
        if (st != ge::VmStatus::Ok) continue;
        double expect = want.value.as_number();
        ASSERT_EQ(std::bit_cast<std::uint64_t>(expect), std::bit_cast<std::uint64_t>(got))
            << ge::to_string(*ast) << "\n= " << expect << " vs " << got << "\n"
            << ce.disassemble();
    }
}

// ---- constant folding -------------------------------------------------------

TEST(VmFolding, PureLiteralTreesFoldToOneConstant) {
    auto ce = ge::compile("1 + 2 * 3", {});
    EXPECT_TRUE(ce.is_constant());
    EXPECT_EQ(ce.code().size(), 2u); // PushConst + Ret
    ge::VmValue out;
    ASSERT_EQ(ce.run(std::span<const ge::VmValue>{}, out), ge::VmStatus::Ok);
    EXPECT_TRUE(out.is_int());
    EXPECT_EQ(out.i, 7);
}

TEST(VmFolding, BuiltinsAndConditionalsFold) {
    EXPECT_TRUE(ge::compile("min(2, 3) + max(1.5, 0)", {}).is_constant());
    EXPECT_TRUE(ge::compile("1 < 2 ? 10 : 20", {}).is_constant());
    EXPECT_TRUE(ge::compile("sqrt(pow(3, 2))", {}).is_constant());
    // Inverted clamp bounds fold to the upper bound, as interpreted.
    ge::VmValue out;
    auto ci = ge::compile("clamp(7, 5, 1)", {});
    ASSERT_TRUE(ci.is_constant());
    ASSERT_EQ(ci.run(std::span<const ge::VmValue>{}, out), ge::VmStatus::Ok);
    EXPECT_TRUE(out.is_int() && out.i == 1);
    auto cr = ge::compile("clamp(7.5, 5, 1)", {});
    ASSERT_TRUE(cr.is_constant());
    ASSERT_EQ(cr.run(std::span<const ge::VmValue>{}, out), ge::VmStatus::Ok);
    EXPECT_TRUE(out.is_real() && out.d == 1.0);
}

TEST(VmFolding, ShortCircuitFoldsSkipUnknowns) {
    // The interpreter never evaluates the dead side, so neither may we.
    auto ce = ge::compile("false && missing", {});
    EXPECT_TRUE(ce.is_constant());
    ge::VmValue out;
    ASSERT_EQ(ce.run(std::span<const ge::VmValue>{}, out), ge::VmStatus::Ok);
    EXPECT_TRUE(out.is_bool());
    EXPECT_FALSE(out.b);

    EXPECT_TRUE(ge::compile("true || missing", {}).is_constant());
    // Constant condition: only the taken branch is compiled.
    EXPECT_TRUE(ge::compile("2 > 1 ? 5 : missing", {}).is_constant());
}

TEST(VmFolding, FaultingFoldsStayRuntimeFaults) {
    auto ce = ge::compile("1 / 0", {});
    EXPECT_FALSE(ce.is_constant());
    ge::VmValue out;
    EXPECT_EQ(ce.run(std::span<const ge::VmValue>{}, out), ge::VmStatus::DivByZero);
    EXPECT_EQ(ge::compile("7 % 0", {}).run(std::span<const ge::VmValue>{}, out),
              ge::VmStatus::DivByZero);
}

TEST(VmFolding, PartialFoldingInsideVariableExpressions) {
    std::vector<std::string> slots{"x"};
    auto ce = ge::compile("x + 2 * 3", slots);
    // The folded 6 plus load, add, ret.
    EXPECT_EQ(ce.code().size(), 4u);
    double out;
    ASSERT_EQ(ce.run(std::span<const double>(std::vector<double>{4.0}), out),
              ge::VmStatus::Ok);
    EXPECT_DOUBLE_EQ(out, 10.0);
}

// ---- slots, traps, fast path ------------------------------------------------

TEST(VmSlots, VariablesResolveToSlotIndices) {
    std::vector<std::string> slots{"speed", "on"};
    auto ce = ge::compile("on && speed > 40", slots);
    EXPECT_EQ(ce.slot_count(), 2u);
    double out;
    double vals[] = {42.0, 1.0};
    ASSERT_EQ(ce.run(std::span<const double>(vals), out), ge::VmStatus::Ok);
    EXPECT_EQ(out, 1.0);
    vals[1] = 0.0;
    ASSERT_EQ(ce.run(std::span<const double>(vals), out), ge::VmStatus::Ok);
    EXPECT_EQ(out, 0.0);
}

TEST(VmSlots, ShortSlotSpanIsATypeError) {
    std::vector<std::string> slots{"x", "y"};
    auto ce = ge::compile("x + y", slots);
    double one = 1.0;
    double out;
    EXPECT_EQ(ce.run(std::span<const double>(&one, 1), out), ge::VmStatus::TypeError);
}

TEST(VmTraps, UnknownVariableOnlyFaultsWhenReached) {
    std::vector<std::string> slots{"x"};
    auto ce = ge::compile("x > 0 && missing", slots);
    double out;
    double neg = -1.0, pos = 1.0;
    // Short-circuited: the trap instruction is never reached.
    ASSERT_EQ(ce.run(std::span<const double>(&neg, 1), out), ge::VmStatus::Ok);
    EXPECT_EQ(out, 0.0);
    EXPECT_EQ(ce.run(std::span<const double>(&pos, 1), out), ge::VmStatus::UnknownVar);
}

TEST(VmTraps, BadCallsEvaluateArgumentsFirst) {
    std::vector<std::string> slots{"x"};
    // The interpreter evaluates arguments before resolving the call, so
    // the argument's div-by-zero wins over the unknown function.
    auto ce = ge::compile("nosuchfn(1 / 0)", slots);
    double out;
    double v = 1.0;
    EXPECT_EQ(ce.run(std::span<const double>(&v, 1), out), ge::VmStatus::DivByZero);
    auto ce2 = ge::compile("min(x)", slots);
    EXPECT_EQ(ce2.run(std::span<const double>(&v, 1), out), ge::VmStatus::BadCall);
}

TEST(VmFastPath, IntSemanticsSurviveTheDoubleApi) {
    std::vector<std::string> slots{"x"};
    // sign(x) / 2 is Int/Int division: 1 / 2 == 0, not 0.5 — the double
    // API must fall back to the tagged loop to preserve that.
    auto ce = ge::compile("sign(x) / 2", slots);
    double out;
    double v = 5.0;
    ASSERT_EQ(ce.run(std::span<const double>(&v, 1), out), ge::VmStatus::Ok);
    EXPECT_EQ(out, 0.0);
}

TEST(VmFastPath, BothTiersAgreeOnGuardSweep) {
    std::vector<std::string> slots{"x", "y"};
    const char* exprs[] = {"x > y", "x % 2 == 0", "x > 0 && y > 0",
                           "abs(x - y) <= 1", "min(x, y) == y",
                           "x * x + y * y < 25"};
    for (const char* src : exprs) {
        auto ce = ge::compile(src, slots);
        for (double x = -3; x <= 3; ++x) {
            for (double y = -3; y <= 3; ++y) {
                double vals[] = {x, y};
                double via_double;
                ge::VmValue tagged_slots[2] = {ge::VmValue::of_real(x),
                                               ge::VmValue::of_real(y)};
                ge::VmValue via_tagged;
                ASSERT_EQ(ce.run(std::span<const double>(vals), via_double),
                          ge::VmStatus::Ok);
                ASSERT_EQ(ce.run(tagged_slots, via_tagged), ge::VmStatus::Ok);
                EXPECT_EQ(via_double, via_tagged.as_number()) << src;
            }
        }
    }
}

} // namespace
