// Staged compilation of GMDF expressions to bytecode (expr::vm).
//
// compile() performs, once, all the work the tree-walk interpreter repays
// on every evaluation:
//  - variable references resolve to integer slots against a caller-
//    supplied slot table (pin indices for FB kernels and SM guards,
//    signal indices for breakpoint predicates) — the per-eval string
//    scan disappears;
//  - constant subexpressions fold, with exactly the interpreter's
//    semantics (a folding step that would fault, like 1/0, is left in
//    the program so the fault stays a runtime result code);
//  - short-circuit structure lowers to branches, so an unknown variable
//    or bad call only faults if its instruction is reached, exactly like
//    the interpreter.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "expr/ast.hpp"
#include "expr/vm.hpp"

namespace gmdf::expr {

/// Resolves a variable name to its slot index; any negative value means
/// "unknown" (the reference compiles to a trap that yields
/// VmStatus::UnknownVar only if actually executed).
using SlotResolver = std::function<int(std::string_view)>;

/// Lowers `e` to a CompiledExpr. Never throws for unknown variables or
/// functions (those become runtime traps, preserving interpreter
/// semantics under short-circuit evaluation).
[[nodiscard]] CompiledExpr compile(const Expr& e, const SlotResolver& slots);

/// Convenience: slot i = slot_names[i] (the pin-order contract of
/// ExprKernel and the SM kernel: input span index == slot index).
[[nodiscard]] CompiledExpr compile(const Expr& e, std::span<const std::string> slot_names);

/// Parse-and-compile convenience; throws ExprError on syntax errors.
[[nodiscard]] CompiledExpr compile(std::string_view src,
                                   std::span<const std::string> slot_names);

} // namespace gmdf::expr
