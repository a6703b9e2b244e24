// Boolean structure over linear-arithmetic atoms.
//
// Formulas are immutable shared trees in negation normal form: negation is
// applied structurally at construction time (De Morgan on And/Or, atom
// flipping on comparisons), so the solver only ever sees True/False/Atom/
// And/Or nodes. Aggregate comparisons over variable sets (max/min) are
// desugared here into And/Or of linear atoms.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "smt/linexpr.hpp"

namespace lejit::smt {

enum class AtomOp {
  kLe,  // expr <= 0
  kEq,  // expr == 0
  kNe,  // expr != 0
};

enum class FormulaKind { kTrue, kFalse, kAtom, kAnd, kOr };

class FormulaNode;
using Formula = std::shared_ptr<const FormulaNode>;

// One node of an NNF formula tree. Construct via the free builders below
// (le/eq/land/lor/...), which maintain the NNF invariant and perform
// constant folding; the constructors are public only for those builders.
class FormulaNode {
 public:
  FormulaNode(FormulaKind kind) : kind_(kind) {}
  FormulaNode(AtomOp op, LinExpr expr);
  FormulaNode(FormulaKind kind, std::vector<Formula> children)
      : kind_(kind), children_(std::move(children)) {}

  FormulaKind kind() const noexcept { return kind_; }
  AtomOp atom_op() const noexcept { return op_; }
  const LinExpr& atom_expr() const noexcept { return expr_; }
  const std::vector<Formula>& children() const noexcept { return children_; }
  // Atoms only: the largest variable magnitude D for which this atom's
  // interval arithmetic fits plain int64, i.e. Σ|cᵢ|·D + |c₀| < kIntInf, so
  // every partial sum over a box inside [-D, D] is exact without saturation.
  // -1 when no D qualifies. Computed once here so the solver's per-node test
  // is one comparison against its largest declared bound.
  Int atom_plain_bound() const noexcept { return plain_bound_; }

  std::string to_string() const;

  // Evaluate under a full assignment (used by the rule checker and by
  // brute-force oracles in tests).
  bool eval(const std::vector<Int>& assignment) const;

 private:
  FormulaKind kind_;
  AtomOp op_ = AtomOp::kLe;
  LinExpr expr_;
  Int plain_bound_ = -1;
  std::vector<Formula> children_;
};

Formula make_true();
Formula make_false();

// --- comparisons (all normalized to {<=0, ==0, !=0} atoms) -----------------
Formula le(const LinExpr& a, const LinExpr& b);  // a <= b
Formula lt(const LinExpr& a, const LinExpr& b);  // a <  b
Formula ge(const LinExpr& a, const LinExpr& b);  // a >= b
Formula gt(const LinExpr& a, const LinExpr& b);  // a >  b
Formula eq(const LinExpr& a, const LinExpr& b);  // a == b
Formula ne(const LinExpr& a, const LinExpr& b);  // a != b

// a <= x AND x <= b
Formula between(const LinExpr& x, const LinExpr& a, const LinExpr& b);

// --- connectives ------------------------------------------------------------
Formula land(std::vector<Formula> fs);
Formula lor(std::vector<Formula> fs);
Formula land(const Formula& a, const Formula& b);
Formula lor(const Formula& a, const Formula& b);
Formula lnot(const Formula& f);
Formula implies(const Formula& a, const Formula& b);
Formula iff(const Formula& a, const Formula& b);

// --- aggregates over variable sets -------------------------------------------
// max(vars) >= rhs  ≡  OR_i vars[i] >= rhs      (vars must be non-empty)
Formula max_ge(std::span<const VarId> vars, const LinExpr& rhs);
// max(vars) <= rhs  ≡  AND_i vars[i] <= rhs
Formula max_le(std::span<const VarId> vars, const LinExpr& rhs);
// min(vars) <= rhs  ≡  OR_i vars[i] <= rhs
Formula min_le(std::span<const VarId> vars, const LinExpr& rhs);
// min(vars) >= rhs  ≡  AND_i vars[i] >= rhs
Formula min_ge(std::span<const VarId> vars, const LinExpr& rhs);
// |a - b| <= c  ≡  (a - b <= c) AND (b - a <= c)
Formula abs_diff_le(const LinExpr& a, const LinExpr& b, const LinExpr& c);

}  // namespace lejit::smt
