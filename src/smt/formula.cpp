#include "smt/formula.hpp"

#include <sstream>

namespace lejit::smt {

namespace {

// Constant-fold an atom whose expression has no variables.
Formula fold_constant_atom(AtomOp op, const LinExpr& expr) {
  const Int c = expr.constant();
  bool value = false;
  switch (op) {
    case AtomOp::kLe: value = c <= 0; break;
    case AtomOp::kEq: value = c == 0; break;
    case AtomOp::kNe: value = c != 0; break;
  }
  return value ? make_true() : make_false();
}

Formula make_atom(AtomOp op, LinExpr expr) {
  if (expr.is_constant()) return fold_constant_atom(op, expr);
  return std::make_shared<const FormulaNode>(op, std::move(expr));
}

}  // namespace

FormulaNode::FormulaNode(AtomOp op, LinExpr expr)
    : kind_(FormulaKind::kAtom), op_(op), expr_(std::move(expr)) {
  Int coeffs = 0;  // Σ|cᵢ|, saturated
  for (const auto& [v, c] : expr_.terms())
    coeffs = sat_add(coeffs, c < 0 ? -c : c);
  const Int c0 = expr_.constant() < 0 ? -expr_.constant() : expr_.constant();
  if (c0 < kIntInf && coeffs < kIntInf)
    plain_bound_ = coeffs == 0 ? kIntInf : (kIntInf - 1 - c0) / coeffs;
}

Formula make_true() {
  static const Formula t =
      std::make_shared<const FormulaNode>(FormulaKind::kTrue);
  return t;
}

Formula make_false() {
  static const Formula f =
      std::make_shared<const FormulaNode>(FormulaKind::kFalse);
  return f;
}

Formula le(const LinExpr& a, const LinExpr& b) { return make_atom(AtomOp::kLe, a - b); }
Formula lt(const LinExpr& a, const LinExpr& b) { return le(a + LinExpr(1), b); }
Formula ge(const LinExpr& a, const LinExpr& b) { return le(b, a); }
Formula gt(const LinExpr& a, const LinExpr& b) { return lt(b, a); }
Formula eq(const LinExpr& a, const LinExpr& b) { return make_atom(AtomOp::kEq, a - b); }
Formula ne(const LinExpr& a, const LinExpr& b) { return make_atom(AtomOp::kNe, a - b); }

Formula between(const LinExpr& x, const LinExpr& a, const LinExpr& b) {
  return land(le(a, x), le(x, b));
}

namespace {

Formula make_nary(FormulaKind kind, std::vector<Formula> fs) {
  LEJIT_ASSERT(kind == FormulaKind::kAnd || kind == FormulaKind::kOr,
               "make_nary expects a connective");
  const Formula absorbing =
      kind == FormulaKind::kAnd ? make_false() : make_true();
  const Formula identity =
      kind == FormulaKind::kAnd ? make_true() : make_false();
  std::vector<Formula> kept;
  kept.reserve(fs.size());
  for (auto& f : fs) {
    LEJIT_REQUIRE(f != nullptr, "null formula operand");
    if (f->kind() == absorbing->kind()) return absorbing;
    if (f->kind() == identity->kind()) continue;
    // Flatten nested connectives of the same kind.
    if (f->kind() == kind) {
      kept.insert(kept.end(), f->children().begin(), f->children().end());
    } else {
      kept.push_back(std::move(f));
    }
  }
  if (kept.empty()) return identity;
  if (kept.size() == 1) return kept.front();
  return std::make_shared<const FormulaNode>(kind, std::move(kept));
}

}  // namespace

Formula land(std::vector<Formula> fs) {
  return make_nary(FormulaKind::kAnd, std::move(fs));
}
Formula lor(std::vector<Formula> fs) {
  return make_nary(FormulaKind::kOr, std::move(fs));
}
Formula land(const Formula& a, const Formula& b) { return land(std::vector<Formula>{a, b}); }
Formula lor(const Formula& a, const Formula& b) { return lor(std::vector<Formula>{a, b}); }

Formula lnot(const Formula& f) {
  LEJIT_REQUIRE(f != nullptr, "null formula operand");
  switch (f->kind()) {
    case FormulaKind::kTrue: return make_false();
    case FormulaKind::kFalse: return make_true();
    case FormulaKind::kAtom: {
      const LinExpr& e = f->atom_expr();
      switch (f->atom_op()) {
        case AtomOp::kLe:
          // !(e <= 0)  ≡  e >= 1  ≡  -e + 1 <= 0
          return make_atom(AtomOp::kLe, LinExpr(1) - e);
        case AtomOp::kEq: return make_atom(AtomOp::kNe, e);
        case AtomOp::kNe: return make_atom(AtomOp::kEq, e);
      }
      LEJIT_UNREACHABLE("unreachable atom op");
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<Formula> negated;
      negated.reserve(f->children().size());
      for (const auto& c : f->children()) negated.push_back(lnot(c));
      return f->kind() == FormulaKind::kAnd ? lor(std::move(negated))
                                            : land(std::move(negated));
    }
  }
  LEJIT_UNREACHABLE("unreachable formula kind");
}

Formula implies(const Formula& a, const Formula& b) { return lor(lnot(a), b); }

Formula iff(const Formula& a, const Formula& b) {
  return land(implies(a, b), implies(b, a));
}

Formula max_ge(std::span<const VarId> vars, const LinExpr& rhs) {
  LEJIT_REQUIRE(!vars.empty(), "aggregate over empty variable set");
  std::vector<Formula> fs;
  fs.reserve(vars.size());
  for (const VarId v : vars) fs.push_back(ge(LinExpr(v), rhs));
  return lor(std::move(fs));
}

Formula max_le(std::span<const VarId> vars, const LinExpr& rhs) {
  LEJIT_REQUIRE(!vars.empty(), "aggregate over empty variable set");
  std::vector<Formula> fs;
  fs.reserve(vars.size());
  for (const VarId v : vars) fs.push_back(le(LinExpr(v), rhs));
  return land(std::move(fs));
}

Formula min_le(std::span<const VarId> vars, const LinExpr& rhs) {
  LEJIT_REQUIRE(!vars.empty(), "aggregate over empty variable set");
  std::vector<Formula> fs;
  fs.reserve(vars.size());
  for (const VarId v : vars) fs.push_back(le(LinExpr(v), rhs));
  return lor(std::move(fs));
}

Formula min_ge(std::span<const VarId> vars, const LinExpr& rhs) {
  LEJIT_REQUIRE(!vars.empty(), "aggregate over empty variable set");
  std::vector<Formula> fs;
  fs.reserve(vars.size());
  for (const VarId v : vars) fs.push_back(ge(LinExpr(v), rhs));
  return land(std::move(fs));
}

Formula abs_diff_le(const LinExpr& a, const LinExpr& b, const LinExpr& c) {
  return land(le(a - b, c), le(b - a, c));
}

bool FormulaNode::eval(const std::vector<Int>& assignment) const {
  switch (kind_) {
    case FormulaKind::kTrue: return true;
    case FormulaKind::kFalse: return false;
    case FormulaKind::kAtom: {
      const Int v = expr_.eval(assignment);
      switch (op_) {
        case AtomOp::kLe: return v <= 0;
        case AtomOp::kEq: return v == 0;
        case AtomOp::kNe: return v != 0;
      }
      LEJIT_UNREACHABLE("unreachable atom op");
    }
    case FormulaKind::kAnd:
      for (const auto& c : children_)
        if (!c->eval(assignment)) return false;
      return true;
    case FormulaKind::kOr:
      for (const auto& c : children_)
        if (c->eval(assignment)) return true;
      return false;
  }
  LEJIT_UNREACHABLE("unreachable formula kind");
}

std::string FormulaNode::to_string() const {
  switch (kind_) {
    case FormulaKind::kTrue: return "true";
    case FormulaKind::kFalse: return "false";
    case FormulaKind::kAtom: {
      const char* op = op_ == AtomOp::kLe ? " <= 0"
                       : op_ == AtomOp::kEq ? " == 0"
                                            : " != 0";
      return "(" + expr_.to_string() + op + ")";
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::ostringstream os;
      os << "(";
      const char* sep = kind_ == FormulaKind::kAnd ? " & " : " | ";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) os << sep;
        os << children_[i]->to_string();
      }
      os << ")";
      return os.str();
    }
  }
  LEJIT_UNREACHABLE("unreachable formula kind");
}

}  // namespace lejit::smt
