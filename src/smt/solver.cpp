#include "smt/solver.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace lejit::smt {

namespace {

// Atom arithmetic comes in two instantiations. Plain = false saturates every
// sum and product at ±kIntInf, which is what keeps domains up to kIntInf/2
// free of overflow UB. Plain = true is ordinary int64 and skips the division
// for unit coefficients; callers pick it only for an atom whose
// atom_plain_bound() covers the largest declared |bound| (SearchNode::bound).
// There every partial sum is below kIntInf, sat_add/sat_mul are the
// identity, and both instantiations return the same bits.
template <bool Plain>
constexpr Int add(Int a, Int b) noexcept {
  if constexpr (Plain) return a + b;
  return sat_add(a, b);
}
template <bool Plain>
constexpr Int mul(Int a, Int b) noexcept {
  if constexpr (Plain) return a * b;
  return sat_mul(a, b);
}

// Floor/ceil division with positive divisor (C++ '/' truncates toward zero).
template <bool Plain>
constexpr Int floor_div(Int a, Int b) noexcept {
  if constexpr (Plain) {
    if (b == 1) return a;
  }
  const Int q = a / b;
  return (a % b != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}
template <bool Plain>
constexpr Int ceil_div(Int a, Int b) noexcept {
  if constexpr (Plain) {
    if (b == 1) return a;
  }
  const Int q = a / b;
  return (a % b != 0 && ((a < 0) == (b < 0))) ? q + 1 : q;
}

enum class Tri { kFalse, kUnknown, kTrue };

}  // namespace

Budget Budget::deadline_in_ms(std::int64_t ms) {
  Budget b;
  b.deadline_ns = obs::now_ns() + ms * 1'000'000;
  return b;
}

// Search state for one DFS node: current domains plus the constraints that
// still have to be discharged. `atoms` hold must-be-true atomic formulas;
// `ors` hold disjunctions not yet satisfied. Entries are dropped once proved
// true (sound: domains only shrink along a branch, and truth of a formula
// under a box is monotone in box inclusion).
namespace detail {
struct SearchNode {
  std::vector<Int> lo;
  std::vector<Int> hi;
  std::vector<Formula> atoms;
  std::vector<Formula> ors;
  // Largest |declared bound| over all variables. Domains only shrink, so
  // every box this node or its children sees lies inside [-bound, bound].
  Int bound = 0;
  bool conflict = false;
};
}  // namespace detail

// Saved incremental-base state for one push() scope: restoring it on pop()
// makes scoped retraction O(node copy) instead of O(re-propagate everything).
struct Solver::BaseSnapshot {
  bool valid = false;
  std::size_t assertions = 0;
  std::unique_ptr<detail::SearchNode> node;  // set iff valid
};

Solver::Solver(SolverConfig config) : config_(config) {}
Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

namespace {

template <bool Plain>
Interval expr_range(const LinExpr& e, const std::vector<Int>& lo,
                    const std::vector<Int>& hi) {
  Int emin = e.constant();
  Int emax = e.constant();
  for (const auto& [v, c] : e.terms()) {
    const auto i = static_cast<std::size_t>(v.index);
    if (c > 0) {
      emin = add<Plain>(emin, mul<Plain>(c, lo[i]));
      emax = add<Plain>(emax, mul<Plain>(c, hi[i]));
    } else {
      emin = add<Plain>(emin, mul<Plain>(c, hi[i]));
      emax = add<Plain>(emax, mul<Plain>(c, lo[i]));
    }
  }
  return {emin, emax};
}

// Whether atom `a` may run plain int64 arithmetic over `node`'s boxes.
bool plain(const FormulaNode& a, const detail::SearchNode& node) noexcept {
  return a.atom_plain_bound() >= node.bound;
}

Tri eval_atom(const FormulaNode& a, const detail::SearchNode& node) {
  const Interval r =
      plain(a, node) ? expr_range<true>(a.atom_expr(), node.lo, node.hi)
                     : expr_range<false>(a.atom_expr(), node.lo, node.hi);
  switch (a.atom_op()) {
    case AtomOp::kLe:
      if (r.hi <= 0) return Tri::kTrue;
      if (r.lo > 0) return Tri::kFalse;
      return Tri::kUnknown;
    case AtomOp::kEq:
      if (r.lo == 0 && r.hi == 0) return Tri::kTrue;
      if (r.lo > 0 || r.hi < 0) return Tri::kFalse;
      return Tri::kUnknown;
    case AtomOp::kNe:
      if (r.lo > 0 || r.hi < 0) return Tri::kTrue;
      if (r.lo == 0 && r.hi == 0) return Tri::kFalse;
      return Tri::kUnknown;
  }
  LEJIT_UNREACHABLE("unreachable atom op");
}

Tri eval_formula(const Formula& f, const detail::SearchNode& node) {
  switch (f->kind()) {
    case FormulaKind::kTrue: return Tri::kTrue;
    case FormulaKind::kFalse: return Tri::kFalse;
    case FormulaKind::kAtom: return eval_atom(*f, node);
    case FormulaKind::kAnd: {
      bool unknown = false;
      for (const auto& c : f->children()) {
        const Tri t = eval_formula(c, node);
        if (t == Tri::kFalse) return Tri::kFalse;
        if (t == Tri::kUnknown) unknown = true;
      }
      return unknown ? Tri::kUnknown : Tri::kTrue;
    }
    case FormulaKind::kOr: {
      bool unknown = false;
      for (const auto& c : f->children()) {
        const Tri t = eval_formula(c, node);
        if (t == Tri::kTrue) return Tri::kTrue;
        if (t == Tri::kUnknown) unknown = true;
      }
      return unknown ? Tri::kUnknown : Tri::kFalse;
    }
  }
  LEJIT_UNREACHABLE("unreachable formula kind");
}

}  // namespace

VarId Solver::add_var(std::string name, Int lo, Int hi) {
  LEJIT_REQUIRE(lo <= hi, "variable domain must be non-empty: " + name);
  LEJIT_REQUIRE(-kIntInf / 2 < lo && hi < kIntInf / 2,
                "variable domain exceeds solver's safe integer range");
  vars_.push_back({std::move(name), lo, hi});
  return VarId{static_cast<int>(vars_.size()) - 1};
}

Interval Solver::bounds(VarId v) const {
  LEJIT_REQUIRE(v.index >= 0 && v.index < num_vars(), "unknown variable");
  const auto& d = vars_[static_cast<std::size_t>(v.index)];
  return {d.lo, d.hi};
}

const std::string& Solver::name(VarId v) const {
  LEJIT_REQUIRE(v.index >= 0 && v.index < num_vars(), "unknown variable");
  return vars_[static_cast<std::size_t>(v.index)].name;
}

void Solver::add(Formula f) {
  LEJIT_REQUIRE(f != nullptr, "null formula");
  assertions_.push_back(std::move(f));
}

void Solver::push() {
  scopes_.push_back(assertions_.size());
  if (config_.incremental) {
    BaseSnapshot snap;
    snap.valid = base_valid_ && base_ != nullptr;
    snap.assertions = base_assertions_;
    if (snap.valid) snap.node = std::make_unique<detail::SearchNode>(*base_);
    base_saves_.push_back(std::move(snap));
  }
}

void Solver::pop() {
  LEJIT_REQUIRE(!scopes_.empty(), "pop() without matching push()");
  assertions_.resize(scopes_.back());
  scopes_.pop_back();
  if (config_.incremental) {
    LEJIT_ASSERT(!base_saves_.empty(), "base snapshot stack out of sync");
    BaseSnapshot snap = std::move(base_saves_.back());
    base_saves_.pop_back();
    base_valid_ = snap.valid;
    base_assertions_ = snap.assertions;
    base_ = std::move(snap.node);
  }
}

const std::vector<Int>& Solver::model() const {
  LEJIT_REQUIRE(has_model_, "model() requires a preceding kSat check");
  return model_;
}

Int Solver::model_value(VarId v) const {
  LEJIT_REQUIRE(v.index >= 0 &&
                    static_cast<std::size_t>(v.index) < model().size(),
                "unknown variable");
  return model()[static_cast<std::size_t>(v.index)];
}

namespace {

// Assert `f` as true in `node`, unfolding Ands and immediately-decided Ors.
void assert_true(const Formula& f, detail::SearchNode& node);

void assert_or(const Formula& f, detail::SearchNode& node) {
  // Cheap pre-check so unit/true/false disjunctions never enter the list.
  const Formula* only_open = nullptr;
  int open = 0;
  for (const auto& c : f->children()) {
    const Tri t = eval_formula(c, node);
    if (t == Tri::kTrue) return;  // already satisfied
    if (t == Tri::kUnknown) {
      ++open;
      only_open = &c;
    }
  }
  if (open == 0) {
    node.conflict = true;
    return;
  }
  if (open == 1) {
    assert_true(*only_open, node);
    return;
  }
  node.ors.push_back(f);
}

void assert_true(const Formula& f, detail::SearchNode& node) {
  if (node.conflict) return;
  switch (f->kind()) {
    case FormulaKind::kTrue:
      return;
    case FormulaKind::kFalse:
      node.conflict = true;
      return;
    case FormulaKind::kAtom:
      node.atoms.push_back(f);
      return;
    case FormulaKind::kAnd:
      for (const auto& c : f->children()) assert_true(c, node);
      return;
    case FormulaKind::kOr:
      assert_or(f, node);
      return;
  }
}

}  // namespace

namespace {

// Tighten domains so the atom `dir * expr ⟨<=⟩ 0` is bounds-consistent.
// Returns true if any domain changed; sets node.conflict on wipeout.
template <bool Plain>
bool tighten_le(const LinExpr& e, Int dir, detail::SearchNode& node,
                std::int64_t& propagations) {
  // total_min = minimum possible value of dir*e under current domains.
  Int total_min = mul<Plain>(dir, e.constant());
  for (const auto& [v, c0] : e.terms()) {
    const Int c = mul<Plain>(dir, c0);
    const auto i = static_cast<std::size_t>(v.index);
    total_min = add<Plain>(total_min, c > 0 ? mul<Plain>(c, node.lo[i])
                                            : mul<Plain>(c, node.hi[i]));
  }
  if (total_min > 0) {
    node.conflict = true;
    return false;
  }
  bool changed = false;
  for (const auto& [v, c0] : e.terms()) {
    const Int c = mul<Plain>(dir, c0);
    const auto i = static_cast<std::size_t>(v.index);
    const Int own_min =
        c > 0 ? mul<Plain>(c, node.lo[i]) : mul<Plain>(c, node.hi[i]);
    const Int rest_min = add<Plain>(total_min, -own_min);
    // c * x_i <= -rest_min
    if (c > 0) {
      const Int ub = floor_div<Plain>(-rest_min, c);
      if (ub < node.hi[i]) {
        node.hi[i] = ub;
        changed = true;
        ++propagations;
        if (node.hi[i] < node.lo[i]) {
          node.conflict = true;
          return changed;
        }
      }
    } else {
      const Int lb = ceil_div<Plain>(rest_min, -c);
      if (lb > node.lo[i]) {
        node.lo[i] = lb;
        changed = true;
        ++propagations;
        if (node.hi[i] < node.lo[i]) {
          node.conflict = true;
          return changed;
        }
      }
    }
  }
  return changed;
}

// Prune domain-boundary values forbidden by `expr != 0` when exactly one
// variable is unfixed (weak but cheap; search completes the rest).
template <bool Plain>
bool tighten_ne(const LinExpr& e, detail::SearchNode& node,
                std::int64_t& propagations) {
  Int fixed_sum = e.constant();
  std::size_t unfixed_index = 0;
  Int unfixed_coeff = 0;
  int unfixed = 0;
  for (const auto& [v, c] : e.terms()) {
    const auto i = static_cast<std::size_t>(v.index);
    if (node.lo[i] == node.hi[i]) {
      fixed_sum = add<Plain>(fixed_sum, mul<Plain>(c, node.lo[i]));
    } else {
      ++unfixed;
      unfixed_index = i;
      unfixed_coeff = c;
    }
  }
  if (unfixed == 0) {
    if (fixed_sum == 0) node.conflict = true;
    return false;
  }
  if (unfixed != 1) return false;
  // unfixed_coeff * x + fixed_sum != 0 → exclude x0 when it divides evenly.
  Int x0 = 0;
  if (Plain && (unfixed_coeff == 1 || unfixed_coeff == -1)) {
    x0 = -fixed_sum * unfixed_coeff;
  } else {
    if ((-fixed_sum) % unfixed_coeff != 0) return false;
    x0 = (-fixed_sum) / unfixed_coeff;
  }
  bool changed = false;
  if (node.lo[unfixed_index] == x0) {
    ++node.lo[unfixed_index];
    changed = true;
    ++propagations;
  }
  if (node.hi[unfixed_index] == x0) {
    --node.hi[unfixed_index];
    changed = true;
    ++propagations;
  }
  if (node.lo[unfixed_index] > node.hi[unfixed_index]) node.conflict = true;
  return changed;
}

// Tighten domains for one open atom; true if any domain changed.
template <bool Plain>
bool tighten_atom(const FormulaNode& a, detail::SearchNode& node,
                  SolverStats& stats) {
  const LinExpr& e = a.atom_expr();
  switch (a.atom_op()) {
    case AtomOp::kLe:
      return tighten_le<Plain>(e, 1, node, stats.propagations);
    case AtomOp::kEq: {
      const bool changed = tighten_le<Plain>(e, 1, node, stats.propagations);
      if (node.conflict) return changed;
      return tighten_le<Plain>(e, -1, node, stats.propagations) || changed;
    }
    case AtomOp::kNe:
      return tighten_ne<Plain>(e, node, stats.propagations);
  }
  LEJIT_UNREACHABLE("unreachable atom op");
}

}  // namespace

// Bounds-consistency propagation to fixpoint (or the round cap). Shared by
// per-check search and incremental base preparation. Returns false iff the
// node became conflicting; proved-true constraints are dropped in place.
bool Solver::propagate(detail::SearchNode& node, std::int64_t deadline_ns,
                       bool* deadline_hit) {
  for (int round = 0; round < config_.max_propagation_rounds; ++round) {
    if (node.conflict) return false;
    // A single propagation fixpoint can run thousands of sweeps; a deadline
    // checked only between search nodes would be invisible for all of them
    // (the Budget contract says overshoot is bounded by one poll interval —
    // here, one sweep). One clock read per round is noise next to a sweep
    // over every open constraint.
    if (round != 0 && deadline_ns != 0 && obs::now_ns() >= deadline_ns) {
      if (deadline_hit != nullptr) *deadline_hit = true;
      return true;  // not a conflict — the caller converts this to kUnknown
    }
    bool changed = false;

    // Atoms: tighten; drop once definitely true.
    for (std::size_t i = 0; i < node.atoms.size();) {
      const Formula& a = node.atoms[i];
      const Tri t = eval_atom(*a, node);
      if (t == Tri::kFalse) {
        node.conflict = true;
        return false;
      }
      if (t == Tri::kTrue) {
        node.atoms[i] = node.atoms.back();
        node.atoms.pop_back();
        continue;
      }
      changed |= plain(*a, node) ? tighten_atom<true>(*a, node, stats_)
                                 : tighten_atom<false>(*a, node, stats_);
      if (node.conflict) return false;
      ++i;
    }

    // Disjunctions: drop satisfied ones, assert unit ones.
    for (std::size_t i = 0; i < node.ors.size();) {
      const Formula f = node.ors[i];
      const Formula* only_open = nullptr;
      int open = 0;
      bool satisfied = false;
      for (const auto& c : f->children()) {
        const Tri t = eval_formula(c, node);
        if (t == Tri::kTrue) {
          satisfied = true;
          break;
        }
        if (t == Tri::kUnknown) {
          ++open;
          only_open = &c;
        }
      }
      if (satisfied || open <= 1) {
        node.ors[i] = node.ors.back();
        node.ors.pop_back();
        if (!satisfied) {
          if (open == 0) {
            node.conflict = true;
            return false;
          }
          assert_true(*only_open, node);
          if (node.conflict) return false;
          changed = true;
        }
        continue;
      }
      ++i;
    }

    if (!changed) break;
  }
  return !node.conflict;
}

CheckResult Solver::search(detail::SearchNode& node, std::int64_t& nodes_left,
                           std::int64_t deadline_ns) {
  ++stats_.nodes;
  if (--nodes_left < 0) {
    ++stats_.node_exhaustions;
    return CheckResult::kUnknown;
  }
  // A node's real work (propagation sweeps over every open constraint) dwarfs
  // one steady-clock read, so the deadline is simply checked per node.
  if (deadline_ns != 0 && obs::now_ns() >= deadline_ns) {
    ++stats_.deadline_exhaustions;
    return CheckResult::kUnknown;
  }

  bool deadline_hit = false;
  if (!propagate(node, deadline_ns, &deadline_hit)) return CheckResult::kUnsat;
  if (deadline_hit) {
    ++stats_.deadline_exhaustions;
    return CheckResult::kUnknown;
  }

  // --- fully determined? -------------------------------------------------------
  if (node.atoms.empty() && node.ors.empty()) {
    // Every constraint is satisfied for any values in the remaining box;
    // pick the lower corner as the model.
    model_ = node.lo;
    has_model_ = true;
    return CheckResult::kSat;
  }

  // --- branch -------------------------------------------------------------------
  if (!node.ors.empty()) {
    // DPLL-style case split on the first open disjunct. The disjunction is
    // consumed here and strictly shrinks on the negative branch — this is
    // what guarantees termination even when the picked child's atoms stay
    // tri-valued Unknown under bounds consistency.
    const Formula f = node.ors.front();
    node.ors.front() = node.ors.back();
    node.ors.pop_back();

    Formula pick;
    std::vector<Formula> rest;
    rest.reserve(f->children().size());
    for (const auto& c : f->children()) {
      if (!pick && eval_formula(c, node) == Tri::kUnknown) {
        pick = c;
      } else {
        rest.push_back(c);
      }
    }
    LEJIT_ASSERT(pick != nullptr, "open disjunction with no open child");
    {
      detail::SearchNode child = node;
      assert_true(pick, child);
      const CheckResult r = search(child, nodes_left, deadline_ns);
      if (r != CheckResult::kUnsat) return r;
    }
    {
      detail::SearchNode child = std::move(node);
      assert_true(lnot(pick), child);
      assert_true(lor(std::move(rest)), child);
      return search(child, nodes_left, deadline_ns);
    }
  }

  // Domain split on a variable occurring in an open atom; prefer the
  // narrowest such domain so enumeration kicks in quickly. The lower bound
  // goes first as a point: children {lo}, [lo+1, mid], [mid+1, hi] visit
  // values in the same ascending order as lower-half-first bisection and
  // each is strictly narrower, so search stays complete and terminating,
  // but a variable feasible at lo after propagation is fixed in one node.
  std::size_t best = SIZE_MAX;
  Int best_width = kIntInf;
  for (const auto& a : node.atoms) {
    for (const auto& [v, c] : a->atom_expr().terms()) {
      const auto i = static_cast<std::size_t>(v.index);
      const Int width = node.hi[i] - node.lo[i];
      if (width > 0 && width < best_width) {
        best_width = width;
        best = i;
      }
    }
  }
  LEJIT_ASSERT(best != SIZE_MAX, "open atom with all variables fixed");

  const Int lo = node.lo[best];
  const Int mid = lo + (node.hi[best] - lo) / 2;
  {
    detail::SearchNode child = node;
    child.hi[best] = lo;
    const CheckResult r = search(child, nodes_left, deadline_ns);
    if (r != CheckResult::kUnsat) return r;
  }
  if (mid > lo) {
    detail::SearchNode child = node;
    child.lo[best] = lo + 1;
    child.hi[best] = mid;
    const CheckResult r = search(child, nodes_left, deadline_ns);
    if (r != CheckResult::kUnsat) return r;
  }
  {
    detail::SearchNode child = std::move(node);
    child.lo[best] = mid + 1;
    return search(child, nodes_left, deadline_ns);
  }
}

CheckResult Solver::check_assuming(std::span<const Formula> assumptions,
                                   const Budget& budget) {
  if (!obs::metrics_enabled()) return check_assuming_impl(assumptions, budget);

  // Registered once; updates through the references are lock-free.
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& c_checks = registry.counter("smt.checks");
  static obs::Counter& c_nodes = registry.counter("smt.nodes");
  static obs::Counter& c_props = registry.counter("smt.propagations");
  static obs::Counter& c_unknowns = registry.counter("smt.unknowns");
  static obs::Counter& c_deadlines =
      registry.counter("smt.deadline_exhaustions");
  static obs::Histogram& h_latency =
      registry.histogram("smt.check_latency_us");

  const std::int64_t nodes_before = stats_.nodes;
  const std::int64_t props_before = stats_.propagations;
  const std::int64_t deadlines_before = stats_.deadline_exhaustions;
  const std::int64_t t0 = obs::now_ns();
  const obs::Span span(obs::Phase::kSolverCheck);
  const CheckResult r = check_assuming_impl(assumptions, budget);
  h_latency.observe(static_cast<double>(obs::now_ns() - t0) * 1e-3);
  c_checks.inc();
  c_nodes.add(stats_.nodes - nodes_before);
  c_props.add(stats_.propagations - props_before);
  c_deadlines.add(stats_.deadline_exhaustions - deadlines_before);
  if (r == CheckResult::kUnknown) c_unknowns.inc();
  return r;
}

detail::SearchNode Solver::declared_box() const {
  detail::SearchNode node;
  node.lo.reserve(vars_.size());
  node.hi.reserve(vars_.size());
  for (const auto& v : vars_) {
    node.lo.push_back(v.lo);
    node.hi.push_back(v.hi);
    node.bound = std::max({node.bound, -v.lo, v.hi});
  }
  return node;
}

// Make base_ a propagated snapshot of the full current assertion stack. A
// valid base only ever needs the new assertion suffix folded in (domains only
// shrink down an assertion stack, so the old fixpoint stays sound); it is
// rebuilt from scratch after pop-restores of a never-built scope or when
// add_var changed the domain vector underneath it.
void Solver::ensure_base() {
  if (base_valid_ && base_ != nullptr && base_->lo.size() == vars_.size() &&
      base_assertions_ <= assertions_.size()) {
    if (base_assertions_ == assertions_.size()) return;
    if (!base_->conflict) {
      for (std::size_t i = base_assertions_; i < assertions_.size(); ++i)
        assert_true(assertions_[i], *base_);
      if (!base_->conflict) propagate(*base_);
    }
    base_assertions_ = assertions_.size();
    ++stats_.base_folds;
    return;
  }
  base_ = std::make_unique<detail::SearchNode>(declared_box());
  for (const auto& f : assertions_) assert_true(f, *base_);
  base_assertions_ = assertions_.size();
  base_valid_ = true;
  ++stats_.base_rebuilds;
  if (!base_->conflict) propagate(*base_);
}

Interval Solver::propagated_bounds(VarId v) {
  LEJIT_REQUIRE(v.index >= 0 && v.index < num_vars(), "unknown variable");
  if (!config_.incremental) return bounds(v);
  ensure_base();
  if (base_->conflict) return Interval::empty();
  const auto i = static_cast<std::size_t>(v.index);
  return {base_->lo[i], base_->hi[i]};
}

CheckResult Solver::check_assuming_impl(std::span<const Formula> assumptions,
                                        const Budget& budget) {
  ++stats_.checks;
  has_model_ = false;

  // Fault injection: simulate an inconclusive check before spending any real
  // work, so injected and organic kUnknowns exercise the same caller paths.
  if (fault::inject_unknown(fault::Site::kSolverCheck)) {
    ++stats_.unknowns;
    ++stats_.injected_unknowns;
    return CheckResult::kUnknown;
  }

  detail::SearchNode root;
  if (config_.incremental) {
    ensure_base();
    root = *base_;  // rules already folded + propagated once per scope state
  } else {
    root = declared_box();
    for (const auto& f : assertions_) assert_true(f, root);
  }
  for (const auto& f : assumptions) {
    LEJIT_REQUIRE(f != nullptr, "null assumption");
    assert_true(f, root);
  }
  if (root.conflict) return CheckResult::kUnsat;

  std::int64_t nodes_left =
      budget.max_nodes > 0 ? budget.max_nodes : config_.max_nodes;
  const CheckResult r = search(root, nodes_left, budget.deadline_ns);
  if (r == CheckResult::kUnknown) ++stats_.unknowns;
  return r;
}

Interval Solver::feasible_interval(VarId v,
                                   std::span<const Formula> assumptions) {
  const std::optional<Interval> r = try_feasible_interval(v, assumptions);
  if (!r)
    throw util::RuntimeError("solver budget exhausted in feasible_interval");
  return *r;
}

std::optional<Interval> Solver::try_feasible_interval(
    VarId v, std::span<const Formula> assumptions, const Budget& budget) {
  LEJIT_REQUIRE(v.index >= 0 && v.index < num_vars(), "unknown variable");
  std::vector<Formula> assume(assumptions.begin(), assumptions.end());

  const CheckResult first = check_assuming(assume, budget);
  if (first == CheckResult::kUnsat) return Interval::empty();
  if (first == CheckResult::kUnknown) return std::nullopt;
  const Int witness = model_value(v);

  bool gave_up = false;
  const auto sat_with = [&](const Formula& extra) {
    assume.push_back(extra);
    const CheckResult r = check_assuming(assume, budget);
    assume.pop_back();
    if (r == CheckResult::kUnknown) gave_up = true;
    return r == CheckResult::kSat;
  };

  // Smallest feasible value in [bounds.lo, witness].
  Int lb = bounds(v).lo;
  Int ub = witness;
  while (lb < ub && !gave_up) {
    const Int mid = lb + (ub - lb) / 2;
    if (sat_with(le(LinExpr(v), LinExpr(mid)))) {
      ub = std::min(mid, model_value(v));
    } else {
      lb = mid + 1;
    }
  }
  const Int min_v = lb;

  // Largest feasible value in [witness, bounds.hi].
  lb = witness;
  ub = bounds(v).hi;
  while (lb < ub && !gave_up) {
    const Int mid = lb + (ub - lb + 1) / 2;
    if (sat_with(ge(LinExpr(v), LinExpr(mid)))) {
      lb = std::max(mid, model_value(v));
    } else {
      ub = mid - 1;
    }
  }
  if (gave_up) return std::nullopt;
  return Interval{min_v, lb};
}

std::optional<Solver::MinimizeResult> Solver::minimize(const LinExpr& cost) {
  const CheckResult first = check();
  if (first == CheckResult::kUnsat) return std::nullopt;
  if (first == CheckResult::kUnknown)
    throw util::RuntimeError("solver budget exhausted in minimize");

  MinimizeResult best;
  best.model = model_;
  best.cost = cost.eval(best.model);

  // Lower bound from the root box.
  const detail::SearchNode box = declared_box();
  Int lb = expr_range<false>(cost, box.lo, box.hi).lo;

  while (lb < best.cost) {
    const Int mid = lb + (best.cost - lb) / 2;
    const Formula bound = le(cost, LinExpr(mid));
    const CheckResult r = check_assuming(std::span(&bound, 1));
    if (r == CheckResult::kSat) {
      best.model = model_;
      best.cost = cost.eval(best.model);
    } else {
      // kUnknown: could not prove a model at or below `mid` exists; continue
      // above it but remember optimality is no longer certified.
      if (r == CheckResult::kUnknown) best.proven_optimal = false;
      lb = mid + 1;
    }
  }
  model_ = best.model;
  has_model_ = true;
  return best;
}

}  // namespace lejit::smt
