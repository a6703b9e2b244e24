// minismt: a small, complete decision procedure for quantifier-free linear
// integer arithmetic with boolean structure over bounded variable domains.
//
// This is the repository's substitute for Z3 (see DESIGN.md §3). The solved
// fragment — conjunctions/disjunctions/implications of linear comparisons,
// with min/max aggregates desugared by formula.hpp — is exactly what the
// paper's network rules compile to, and bounded domains make the procedure
// complete: interval (bounds-consistency) propagation interleaved with
// DPLL-style search over disjunctions and domain splits.
//
// The interface mirrors the incremental solver workflow LeJIT relies on:
// push/pop assertion scopes, sat checks under temporary assumptions, exact
// feasible-range queries for a variable, and branch-and-bound minimization
// (used by the post-hoc repair baseline).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "smt/formula.hpp"
#include "smt/linexpr.hpp"

namespace lejit::smt {

namespace detail {
struct SearchNode;  // DFS search state, defined in solver.cpp
}

enum class CheckResult { kSat, kUnsat, kUnknown };

struct SolverConfig {
  // Search-node budget per check() call; exceeding it yields kUnknown.
  std::int64_t max_nodes = 500'000;
  // Cap on propagation sweeps per node (guards slow-convergence ping-pong
  // between mutually-constraining bounds; completeness is preserved because
  // search continues by splitting).
  int max_propagation_rounds = 4'000;
  // Reuse the propagated root across checks: the solver keeps a
  // bounds-consistent snapshot of the current assertion stack, folds new
  // assertions into it lazily, and each check_assuming only layers its
  // assumptions on a copy instead of re-asserting and re-propagating every
  // assertion from scratch. push() snapshots the base and pop() restores it,
  // so scoped retraction is O(copy). Answers (sat/unsat and exact feasible
  // intervals) are unchanged; node/propagation counts and which model is
  // reported may differ. Off by default so existing callers keep
  // byte-for-byte behavior; the guided decoder turns it on.
  bool incremental = false;
};

// Per-query resource budget, layered on top of SolverConfig. A zero field
// means "use the config default / no deadline"; a non-zero max_nodes
// *overrides* the config's per-check node cap (tighter or looser — budget
// escalation under a kUnknown policy relies on looser), and deadline_ns is
// an *absolute* monotonic timestamp (obs::now_ns()) past which search gives
// up. Either exhaustion yields kUnknown — the caller's kUnknown policy
// decides what that means.
struct Budget {
  std::int64_t max_nodes = 0;    // 0 = SolverConfig::max_nodes
  std::int64_t deadline_ns = 0;  // 0 = no deadline (absolute obs::now_ns())

  bool unlimited() const noexcept { return max_nodes == 0 && deadline_ns == 0; }
  // Budget expiring `ms` milliseconds from now.
  static Budget deadline_in_ms(std::int64_t ms);
};

struct SolverStats {
  std::int64_t checks = 0;        // number of check() calls
  std::int64_t nodes = 0;         // search nodes across all checks
  std::int64_t propagations = 0;  // domain-tightening events
  std::int64_t unknowns = 0;      // checks that gave up (any cause below)
  std::int64_t node_exhaustions = 0;      // … node budget ran out
  std::int64_t deadline_exhaustions = 0;  // … wall-clock deadline passed
  std::int64_t injected_unknowns = 0;     // … fault injection forced kUnknown
  std::int64_t base_rebuilds = 0;  // incremental: base rebuilt from scratch
  std::int64_t base_folds = 0;     // incremental: assertion suffix folded in

  // Aggregate stats across solvers (the plan-sliced decoder runs one solver
  // per rule cluster and reports their sum).
  SolverStats& operator+=(const SolverStats& o) {
    checks += o.checks;
    nodes += o.nodes;
    propagations += o.propagations;
    unknowns += o.unknowns;
    node_exhaustions += o.node_exhaustions;
    deadline_exhaustions += o.deadline_exhaustions;
    injected_unknowns += o.injected_unknowns;
    base_rebuilds += o.base_rebuilds;
    base_folds += o.base_folds;
    return *this;
  }
};

class Solver {
 public:
  explicit Solver(SolverConfig config = {});
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;

  // --- problem construction --------------------------------------------------
  // Declare an integer variable with inclusive domain [lo, hi].
  VarId add_var(std::string name, Int lo, Int hi);
  int num_vars() const noexcept { return static_cast<int>(vars_.size()); }
  Interval bounds(VarId v) const;
  const std::string& name(VarId v) const;

  // Assert a formula in the current scope.
  void add(Formula f);
  // Scoped assertions: pop() retracts everything add()ed since the matching
  // push(). Variables are never retracted.
  void push();
  void pop();
  std::size_t num_scopes() const noexcept { return scopes_.size(); }
  std::size_t num_assertions() const noexcept { return assertions_.size(); }

  // --- queries -----------------------------------------------------------------
  CheckResult check() { return check_assuming({}); }
  CheckResult check(const Budget& budget) { return check_assuming({}, budget); }
  CheckResult check_assuming(std::span<const Formula> assumptions) {
    return check_assuming(assumptions, Budget{});
  }
  CheckResult check_assuming(std::span<const Formula> assumptions,
                             const Budget& budget);

  // Model of the last kSat check; values indexed by VarId::index.
  const std::vector<Int>& model() const;
  Int model_value(VarId v) const;

  // Bounds-consistent over-approximation of v's feasible values under the
  // current assertion stack — no search, just the incremental base's
  // propagated domain (empty ⇔ propagation already proved UNSAT). Falls back
  // to the declared domain when `incremental` is off. Sound for refutation:
  // a value outside this interval is definitely infeasible; a value inside
  // may still be infeasible (holes are invisible to bounds consistency).
  Interval propagated_bounds(VarId v);

  // Exact min/max of `v` over all models of the current assertions plus
  // `assumptions` (binary search on satisfiability). Empty interval ⇔ UNSAT.
  // Throws util::RuntimeError if the node budget is exhausted mid-query.
  Interval feasible_interval(VarId v, std::span<const Formula> assumptions = {});

  // Budgeted, non-throwing variant: nullopt when any underlying check gives
  // up (node budget, deadline, or injected fault) before the range is known.
  // The decoder's kUnknown policy turns a nullopt into degrade-or-retry.
  std::optional<Interval> try_feasible_interval(
      VarId v, std::span<const Formula> assumptions = {},
      const Budget& budget = {});

  // Find a model minimizing `cost` (binary search on the cost bound).
  // nullopt ⇔ UNSAT. Best-effort under the node budget: when a bound query
  // exhausts the budget it is treated as "no better solution found" and
  // `proven_optimal` is cleared — the returned model is still feasible and
  // no worse than any bound that *was* proven. Used by the post-hoc
  // nearest-repair baseline.
  struct MinimizeResult {
    std::vector<Int> model;
    Int cost = 0;
    bool proven_optimal = true;
  };
  std::optional<MinimizeResult> minimize(const LinExpr& cost);

  const SolverStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  struct VarDecl {
    std::string name;
    Int lo = 0;
    Int hi = 0;
  };

  CheckResult check_assuming_impl(std::span<const Formula> assumptions,
                                  const Budget& budget);
  CheckResult search(detail::SearchNode& node, std::int64_t& nodes_left,
                     std::int64_t deadline_ns);
  // Propagates `node` to fixpoint (or the round cap); false ⇔ conflict.
  // A non-zero deadline is re-checked once per sweep round; when it expires
  // mid-fixpoint, propagation stops early, *deadline_hit is set, and the
  // caller must give up with kUnknown (the node is sound but unfinished).
  bool propagate(detail::SearchNode& node, std::int64_t deadline_ns = 0,
                 bool* deadline_hit = nullptr);
  // Root node over the declared domains, with no constraints asserted.
  detail::SearchNode declared_box() const;
  // Incremental mode: make base_ a propagated snapshot of the full current
  // assertion stack, rebuilding or folding the new suffix as needed.
  void ensure_base();

  struct BaseSnapshot;  // saved base state per scope, defined in solver.cpp

  SolverConfig config_;
  std::vector<VarDecl> vars_;
  std::vector<Formula> assertions_;
  std::vector<std::size_t> scopes_;  // assertion-stack marks
  std::vector<Int> model_;
  bool has_model_ = false;
  SolverStats stats_;

  // Incremental base (config_.incremental only): propagated root covering
  // assertions_[0, base_assertions_). base_saves_ parallels scopes_.
  std::unique_ptr<detail::SearchNode> base_;
  bool base_valid_ = false;
  std::size_t base_assertions_ = 0;
  std::vector<BaseSnapshot> base_saves_;
};

}  // namespace lejit::smt
