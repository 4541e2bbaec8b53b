// Unit tests for the expression language: lexer, parser, evaluator.
#include <gtest/gtest.h>

#include <cmath>

#include "expr/eval.hpp"
#include "expr/parser.hpp"

namespace ge = gmdf::expr;
using gmdf::meta::Value;

namespace {

Value run(std::string_view src, const std::map<std::string, Value>& vars = {}) {
    auto ast = ge::parse(src);
    return ge::eval(*ast, vars);
}

TEST(Lexer, TokenKinds) {
    auto toks = ge::lex("x + 1.5 >= (2, true) && !y");
    ASSERT_GE(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, ge::TokKind::Ident);
    EXPECT_EQ(toks[0].text, "x");
    EXPECT_EQ(toks.back().kind, ge::TokKind::End);
}

TEST(Lexer, RejectsSingleEquals) {
    EXPECT_THROW(ge::lex("a = b"), ge::ExprError);
}

TEST(Lexer, RejectsUnknownChar) {
    EXPECT_THROW(ge::lex("a $ b"), ge::ExprError);
}

TEST(Lexer, MalformedExponent) {
    EXPECT_THROW(ge::lex("1e+"), ge::ExprError);
}

TEST(Lexer, WordOperators) {
    EXPECT_EQ(run("true and false").as_bool(), false);
    EXPECT_EQ(run("true or false").as_bool(), true);
    EXPECT_EQ(run("not false").as_bool(), true);
}

TEST(Parser, Precedence) {
    EXPECT_EQ(run("1 + 2 * 3").as_int(), 7);
    EXPECT_EQ(run("(1 + 2) * 3").as_int(), 9);
    EXPECT_EQ(run("2 + 3 < 4 + 4").as_bool(), true);
    EXPECT_EQ(run("1 < 2 && 3 < 4").as_bool(), true);
    EXPECT_EQ(run("false || true && false").as_bool(), false); // && binds tighter
}

TEST(Parser, UnaryChains) {
    EXPECT_EQ(run("--5").as_int(), 5);
    EXPECT_EQ(run("!!true").as_bool(), true);
    EXPECT_EQ(run("-2 * -3").as_int(), 6);
}

TEST(Parser, Conditional) {
    EXPECT_EQ(run("1 < 2 ? 10 : 20").as_int(), 10);
    EXPECT_EQ(run("1 > 2 ? 10 : 20").as_int(), 20);
    // Right associative.
    EXPECT_EQ(run("false ? 1 : true ? 2 : 3").as_int(), 2);
}

TEST(Parser, TrailingJunkRejected) {
    EXPECT_THROW(ge::parse("1 + 2 3"), ge::ExprError);
    EXPECT_THROW(ge::parse(""), ge::ExprError);
    EXPECT_THROW(ge::parse("(1"), ge::ExprError);
    EXPECT_THROW(ge::parse("f(1,"), ge::ExprError);
}

TEST(Parser, FreeVariables) {
    auto ast = ge::parse("x + y * min(z, x) - 2");
    auto vars = ge::free_variables(*ast);
    EXPECT_EQ(vars, (std::vector<std::string>{"x", "y", "z"}));
}

TEST(Parser, ToStringRoundTrip) {
    auto ast = ge::parse("a + b * 2 >= 4 ? min(a, 3) : -b");
    // Printed form must re-parse to an equivalent expression.
    auto printed = ge::to_string(*ast);
    auto ast2 = ge::parse(printed);
    std::map<std::string, Value> env{{"a", Value(5)}, {"b", Value(2)}};
    EXPECT_EQ(ge::eval(*ast, env), ge::eval(*ast2, env));
}

TEST(Eval, IntArithmeticStaysInt) {
    EXPECT_TRUE(run("7 / 2").is_int());
    EXPECT_EQ(run("7 / 2").as_int(), 3);
    EXPECT_EQ(run("7 % 3").as_int(), 1);
}

TEST(Eval, RealPromotion) {
    EXPECT_TRUE(run("7 / 2.0").is_real());
    EXPECT_DOUBLE_EQ(run("7 / 2.0").as_real(), 3.5);
    EXPECT_DOUBLE_EQ(run("1 + 0.5").as_real(), 1.5);
}

TEST(Eval, DivisionByZero) {
    EXPECT_THROW(run("1 / 0"), ge::EvalError);
    EXPECT_THROW(run("1 % 0"), ge::EvalError);
    // Real division by zero follows IEEE.
    EXPECT_TRUE(std::isinf(run("1.0 / 0.0").as_real()));
}

TEST(Eval, Variables) {
    std::map<std::string, Value> env{{"speed", Value(42.0)}, {"on", Value(true)}};
    EXPECT_DOUBLE_EQ(run("speed * 2", env).as_real(), 84.0);
    EXPECT_EQ(run("on && speed > 40", env).as_bool(), true);
}

TEST(Eval, UnknownVariableThrows) {
    EXPECT_THROW(run("missing + 1"), ge::EvalError);
}

TEST(Eval, ShortCircuitSkipsRhs) {
    // RHS would throw (unknown variable) if evaluated.
    EXPECT_EQ(run("false && missing").as_bool(), false);
    EXPECT_EQ(run("true || missing").as_bool(), true);
}

TEST(Eval, Builtins) {
    EXPECT_EQ(run("min(3, 5)").as_int(), 3);
    EXPECT_EQ(run("max(3, 5)").as_int(), 5);
    EXPECT_DOUBLE_EQ(run("min(3.5, 2)").as_real(), 2.0);
    EXPECT_EQ(run("abs(-4)").as_int(), 4);
    EXPECT_DOUBLE_EQ(run("abs(-4.5)").as_real(), 4.5);
    EXPECT_EQ(run("clamp(10, 0, 5)").as_int(), 5);
    // Inverted bounds: the upper bound wins (std::clamp would be UB here).
    EXPECT_EQ(run("clamp(7, 5, 1)").as_int(), 1);
    EXPECT_DOUBLE_EQ(run("clamp(7.5, 5, 1)").as_real(), 1.0);
    EXPECT_DOUBLE_EQ(run("floor(2.7)").as_real(), 2.0);
    EXPECT_DOUBLE_EQ(run("ceil(2.2)").as_real(), 3.0);
    EXPECT_DOUBLE_EQ(run("sqrt(9)").as_real(), 3.0);
    EXPECT_DOUBLE_EQ(run("pow(2, 10)").as_real(), 1024.0);
    EXPECT_EQ(run("sign(-3.2)").as_int(), -1);
    EXPECT_EQ(run("sign(0)").as_int(), 0);
}

TEST(Eval, BuiltinArityChecked) {
    EXPECT_THROW(run("min(1)"), ge::EvalError);
    EXPECT_THROW(run("abs()"), ge::EvalError);
    EXPECT_THROW(run("nosuchfn(1)"), ge::EvalError);
}

TEST(Eval, BoolEquality) {
    EXPECT_EQ(run("true == true").as_bool(), true);
    EXPECT_EQ(run("true != false").as_bool(), true);
}

TEST(Eval, EvalBoolCoercion) {
    auto ast = ge::parse("3");
    EXPECT_TRUE(ge::eval_bool(*ast, [](std::string_view) { return Value(); }));
    auto zero = ge::parse("0");
    EXPECT_FALSE(ge::eval_bool(*zero, [](std::string_view) { return Value(); }));
}

TEST(Eval, IsBuiltin) {
    EXPECT_TRUE(ge::is_builtin("min"));
    EXPECT_TRUE(ge::is_builtin("pow"));
    EXPECT_FALSE(ge::is_builtin("zzz"));
}

// Property sweep: for random-ish integer environments, guard expressions
// evaluate consistently with a hand-computed oracle.
struct GuardCase {
    const char* src;
    std::int64_t x;
    std::int64_t y;
    bool expected;
};

class GuardSweep : public ::testing::TestWithParam<GuardCase> {};

TEST_P(GuardSweep, MatchesOracle) {
    const auto& c = GetParam();
    std::map<std::string, Value> env{{"x", Value(c.x)}, {"y", Value(c.y)}};
    EXPECT_EQ(run(c.src, env).as_bool(), c.expected) << c.src;
}

INSTANTIATE_TEST_SUITE_P(
    Guards, GuardSweep,
    ::testing::Values(
        GuardCase{"x > y", 3, 2, true}, GuardCase{"x > y", 2, 3, false},
        GuardCase{"x % 2 == 0", 4, 0, true}, GuardCase{"x % 2 == 0", 5, 0, false},
        GuardCase{"x > 0 && y > 0", 1, 1, true}, GuardCase{"x > 0 && y > 0", 1, -1, false},
        GuardCase{"abs(x - y) <= 1", 5, 6, true}, GuardCase{"abs(x - y) <= 1", 5, 8, false},
        GuardCase{"min(x, y) == y", 9, 4, true}, GuardCase{"x * x + y * y < 25", 3, 3, true},
        GuardCase{"x * x + y * y < 25", 4, 3, false}));

} // namespace
