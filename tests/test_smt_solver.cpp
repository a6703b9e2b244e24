#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "smt/solver.hpp"
#include "util/rng.hpp"

namespace lejit::smt {
namespace {

TEST(Solver, TrivialSatAndModel) {
  Solver s;
  const VarId x = s.add_var("x", 0, 10);
  s.add(ge(LinExpr(x), LinExpr(3)));
  s.add(le(LinExpr(x), LinExpr(5)));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  EXPECT_GE(s.model_value(x), 3);
  EXPECT_LE(s.model_value(x), 5);
}

TEST(Solver, TrivialUnsat) {
  Solver s;
  const VarId x = s.add_var("x", 0, 10);
  s.add(ge(LinExpr(x), LinExpr(7)));
  s.add(le(LinExpr(x), LinExpr(3)));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
}

TEST(Solver, EmptyDomainRejectedAtDeclaration) {
  Solver s;
  EXPECT_THROW(s.add_var("x", 5, 4), util::PreconditionError);
}

TEST(Solver, ModelWithoutSatCheckIsAnError) {
  Solver s;
  s.add_var("x", 0, 1);
  EXPECT_THROW(s.model(), util::PreconditionError);
}

TEST(Solver, LinearCouplingPropagates) {
  Solver s;
  const VarId x = s.add_var("x", 0, 100);
  const VarId y = s.add_var("y", 0, 100);
  s.add(eq(LinExpr(x) + LinExpr(y), LinExpr(10)));
  s.add(ge(LinExpr(x), LinExpr(8)));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  EXPECT_EQ(s.model_value(x) + s.model_value(y), 10);
  EXPECT_GE(s.model_value(x), 8);
}

TEST(Solver, SumEqualityOverManyVariables) {
  Solver s;
  std::vector<VarId> vars;
  LinExpr sum;
  for (int i = 0; i < 10; ++i) {
    vars.push_back(s.add_var("v" + std::to_string(i), 0, 60));
    sum += LinExpr(vars.back());
  }
  s.add(eq(sum, LinExpr(123)));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  Int total = 0;
  for (const VarId v : vars) total += s.model_value(v);
  EXPECT_EQ(total, 123);
}

TEST(Solver, DisjunctionForcesCaseSplit) {
  Solver s;
  const VarId x = s.add_var("x", 0, 100);
  // x <= 10 OR x >= 90, and x >= 20 → only the right branch survives.
  s.add(lor(le(LinExpr(x), LinExpr(10)), ge(LinExpr(x), LinExpr(90))));
  s.add(ge(LinExpr(x), LinExpr(20)));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  EXPECT_GE(s.model_value(x), 90);
}

TEST(Solver, ImplicationActivation) {
  Solver s;
  const VarId cong = s.add_var("cong", 0, 100);
  const VarId peak = s.add_var("peak", 0, 60);
  s.add(implies(gt(LinExpr(cong), LinExpr(0)), ge(LinExpr(peak), LinExpr(30))));
  s.add(eq(LinExpr(cong), LinExpr(8)));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  EXPECT_GE(s.model_value(peak), 30);
}

TEST(Solver, ImplicationDeactivatedWhenAntecedentFalse) {
  Solver s;
  const VarId cong = s.add_var("cong", 0, 100);
  const VarId peak = s.add_var("peak", 0, 60);
  s.add(implies(gt(LinExpr(cong), LinExpr(0)), ge(LinExpr(peak), LinExpr(30))));
  s.add(eq(LinExpr(cong), LinExpr(0)));
  s.add(le(LinExpr(peak), LinExpr(5)));
  EXPECT_EQ(s.check(), CheckResult::kSat);
}

TEST(Solver, NotEqualCarvesHole) {
  Solver s;
  const VarId x = s.add_var("x", 3, 3);
  s.add(ne(LinExpr(x), LinExpr(3)));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
}

TEST(Solver, PushPopRestoresAssertions) {
  Solver s;
  const VarId x = s.add_var("x", 0, 10);
  s.add(ge(LinExpr(x), LinExpr(2)));
  s.push();
  s.add(le(LinExpr(x), LinExpr(1)));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
  s.pop();
  EXPECT_EQ(s.check(), CheckResult::kSat);
  EXPECT_EQ(s.num_assertions(), 1u);
}

TEST(Solver, NestedScopes) {
  Solver s;
  const VarId x = s.add_var("x", 0, 100);
  s.push();
  s.add(ge(LinExpr(x), LinExpr(10)));
  s.push();
  s.add(le(LinExpr(x), LinExpr(5)));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
  s.pop();
  EXPECT_EQ(s.check(), CheckResult::kSat);
  s.pop();
  EXPECT_EQ(s.num_assertions(), 0u);
  EXPECT_THROW(s.pop(), util::PreconditionError);
}

TEST(Solver, CheckAssumingDoesNotPersist) {
  Solver s;
  const VarId x = s.add_var("x", 0, 10);
  const Formula assume = ge(LinExpr(x), LinExpr(11) - LinExpr(1));
  const std::vector<Formula> as{le(LinExpr(x), LinExpr(3)), ge(LinExpr(x), LinExpr(4))};
  EXPECT_EQ(s.check_assuming(as), CheckResult::kUnsat);
  EXPECT_EQ(s.check(), CheckResult::kSat);
  (void)assume;
}

TEST(Solver, FeasibleIntervalSimple) {
  Solver s;
  const VarId x = s.add_var("x", 0, 100);
  s.add(ge(LinExpr(x), LinExpr(17)));
  s.add(le(LinExpr(x), LinExpr(42)));
  EXPECT_EQ(s.feasible_interval(x), (Interval{17, 42}));
}

TEST(Solver, FeasibleIntervalEmptyOnUnsat) {
  Solver s;
  const VarId x = s.add_var("x", 0, 10);
  s.add(gt(LinExpr(x), LinExpr(20)));
  EXPECT_TRUE(s.feasible_interval(x).is_empty());
}

TEST(Solver, FeasibleIntervalSpansHoles) {
  // Feasible set {0..10} ∪ {30..40}: the interval hull is [0,40] (min/max
  // are exact; holes are handled by per-value sat checks at a higher layer).
  Solver s;
  const VarId x = s.add_var("x", 0, 60);
  s.add(lor(le(LinExpr(x), LinExpr(10)), ge(LinExpr(x), LinExpr(30))));
  s.add(le(LinExpr(x), LinExpr(40)));
  EXPECT_EQ(s.feasible_interval(x), (Interval{0, 40}));
}

// The paper's Fig. 1 worked example: T=5, BW=60, TotalIngress=100,
// Congestion=8, with I0..I2 already generated as 20, 15, 25. The remaining
// feasible set for I3 is {0..10} ∪ {30..40} — non-convex because R3's burst
// implication must be met by I3 or I4 while R2 fixes I3+I4=40.
class Fig1Example : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int t = 0; t < 5; ++t)
      vars.push_back(solver.add_var("I" + std::to_string(t), 0, kBw));  // R1
    LinExpr sum;
    for (const VarId v : vars) sum += LinExpr(v);
    solver.add(eq(sum, LinExpr(kTotal)));  // R2
    solver.add(implies(gt(LinExpr(kCong), LinExpr(0)),
                       max_ge(vars, LinExpr(kBw / 2))));  // R3
    solver.push();
    solver.add(eq(LinExpr(vars[0]), LinExpr(20)));
    solver.add(eq(LinExpr(vars[1]), LinExpr(15)));
    solver.add(eq(LinExpr(vars[2]), LinExpr(25)));
  }

  static constexpr Int kBw = 60;
  static constexpr Int kTotal = 100;
  static constexpr Int kCong = 8;
  Solver solver;
  std::vector<VarId> vars;
};

TEST_F(Fig1Example, HullOfI3IsZeroToForty) {
  EXPECT_EQ(solver.feasible_interval(vars[3]), (Interval{0, 40}));
}

TEST_F(Fig1Example, MiddleOfTheHoleIsInfeasible) {
  for (const Int bad : {11, 20, 29}) {
    const Formula pin = eq(LinExpr(vars[3]), LinExpr(bad));
    EXPECT_EQ(solver.check_assuming(std::span(&pin, 1)), CheckResult::kUnsat)
        << "I3 = " << bad << " should be infeasible";
  }
}

TEST_F(Fig1Example, EdgesOfBothComponentsAreFeasible) {
  for (const Int good : {0, 10, 30, 39, 40}) {
    const Formula pin = eq(LinExpr(vars[3]), LinExpr(good));
    EXPECT_EQ(solver.check_assuming(std::span(&pin, 1)), CheckResult::kSat)
        << "I3 = " << good << " should be feasible";
  }
}

TEST_F(Fig1Example, PaperValueThirtyNineForcesI4ToOne) {
  solver.add(eq(LinExpr(vars[3]), LinExpr(39)));
  EXPECT_EQ(solver.feasible_interval(vars[4]), (Interval{1, 1}));
}

TEST_F(Fig1Example, ViolatingPrefixSeventyIsImpossible) {
  // The vanilla LLM in Fig. 1a emits I3 = 70 > BW; under the rules the value
  // is outside the variable's domain, so pinning it is unsatisfiable.
  const Formula pin = ge(LinExpr(vars[3]), LinExpr(70));
  EXPECT_EQ(solver.check_assuming(std::span(&pin, 1)), CheckResult::kUnsat);
}

TEST_F(Fig1Example, PopRestoresUnconstrainedWindow) {
  solver.pop();
  EXPECT_EQ(solver.feasible_interval(vars[3]), (Interval{0, kBw}));
}

TEST(Solver, MinimizeFindsOptimum) {
  Solver s;
  const VarId x = s.add_var("x", 0, 100);
  const VarId y = s.add_var("y", 0, 100);
  s.add(ge(LinExpr(x) + LinExpr(y), LinExpr(10)));
  s.add(ge(LinExpr(x), LinExpr(3)));
  const auto best = s.minimize(LinExpr(x) + 2 * LinExpr(y));
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(best->proven_optimal);
  // Optimum: push x as high as useful: x=10,y=0 → cost 10.
  EXPECT_EQ(best->cost, 10);
}

TEST(Solver, MinimizeOnUnsatReturnsNullopt) {
  Solver s;
  const VarId x = s.add_var("x", 0, 10);
  s.add(gt(LinExpr(x), LinExpr(99)));
  EXPECT_EQ(s.minimize(LinExpr(x)), std::nullopt);
}

TEST(Solver, NodeBudgetYieldsUnknown) {
  Solver s(SolverConfig{.max_nodes = 1, .max_propagation_rounds = 1});
  std::vector<VarId> vars;
  for (int i = 0; i < 8; ++i)
    vars.push_back(s.add_var("v" + std::to_string(i), 0, 1'000'000));
  LinExpr sum;
  for (const VarId v : vars) sum += LinExpr(v);
  // A constraint needing real search under a starved budget.
  s.add(lor(eq(sum, LinExpr(999)), eq(sum, LinExpr(1'000'001))));
  s.add(ne(LinExpr(vars[0]) - LinExpr(vars[1]), LinExpr(0)));
  const CheckResult r = s.check();
  EXPECT_TRUE(r == CheckResult::kUnknown || r == CheckResult::kSat);
  if (r == CheckResult::kUnknown) {
    EXPECT_GE(s.stats().unknowns, 1);
  }
}

TEST(Solver, StatsAccumulate) {
  Solver s;
  const VarId x = s.add_var("x", 0, 10);
  s.add(ge(LinExpr(x), LinExpr(5)));
  (void)s.check();
  (void)s.check();
  EXPECT_EQ(s.stats().checks, 2);
  EXPECT_GE(s.stats().nodes, 2);
  s.reset_stats();
  EXPECT_EQ(s.stats().checks, 0);
}

TEST(Solver, ValueFirstSplitFixesFeasibleLowerBoundsInOneNodeEach) {
  // The decoder's shape: five [0,96] fields under a sum rule, one field
  // pinned to a digit-prefix range. Trying each split variable's lower bound
  // as a point first fixes I0=30, I1=0, I2=18 one node each (4 nodes with the
  // root); lower-half-first bisection walks 19.
  for (const bool incremental : {false, true}) {
    Solver s(SolverConfig{.incremental = incremental});
    LinExpr sum;
    std::vector<VarId> vars;
    for (int i = 0; i < 5; ++i) {
      vars.push_back(s.add_var("I" + std::to_string(i), 0, 96));
      sum += LinExpr(vars.back());
    }
    s.add(eq(sum, LinExpr(240)));
    const Formula pin = between(LinExpr(vars[0]), LinExpr(30), LinExpr(39));
    ASSERT_EQ(s.check_assuming(std::span(&pin, 1)), CheckResult::kSat);
    EXPECT_LE(s.stats().nodes, 6) << "incremental=" << incremental;
    EXPECT_EQ(s.model_value(vars[0]), 30);
  }
}

// ---------------------------------------------------------------------------
// Property: solver agrees with a brute-force oracle on random problems over
// small domains. This is the main correctness argument for minismt.
// ---------------------------------------------------------------------------

Formula random_formula(util::Rng& rng, const std::vector<VarId>& vars,
                       int depth) {
  if (depth == 0 || rng.bernoulli(0.45)) {
    LinExpr e(rng.uniform_int(-6, 6));
    const int nterms = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < nterms; ++i) {
      const VarId v = vars[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<Int>(vars.size()) - 1))];
      e += LinExpr::term(rng.uniform_int(-3, 3), v);
    }
    switch (rng.uniform_int(0, 2)) {
      case 0: return le(e, LinExpr(0));
      case 1: return eq(e, LinExpr(0));
      default: return ne(e, LinExpr(0));
    }
  }
  std::vector<Formula> children;
  const int arity = static_cast<int>(rng.uniform_int(2, 3));
  for (int i = 0; i < arity; ++i)
    children.push_back(random_formula(rng, vars, depth - 1));
  switch (rng.uniform_int(0, 3)) {
    case 0: return land(std::move(children));
    case 1: return lor(std::move(children));
    case 2: return implies(children[0], children[1]);
    default: return lnot(children[0]);
  }
}

struct OracleCase {
  int seed;
  int nvars;
  Int domain_hi;
};

class SolverOracleProperty : public ::testing::TestWithParam<OracleCase> {};

TEST_P(SolverOracleProperty, AgreesWithBruteForce) {
  const OracleCase param = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(param.seed) * 7919 + 13);
  std::vector<VarId> vars;
  for (int i = 0; i < param.nvars; ++i) vars.push_back(VarId{i});

  for (int trial = 0; trial < 12; ++trial) {
    std::vector<Formula> formulas;
    const int nf = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < nf; ++i)
      formulas.push_back(random_formula(rng, vars, 2));
    // Asked the way the guided decoder asks: `scoped` asserted inside a
    // push/pop scope, `assumed` passed to check_assuming.
    const Formula scoped = random_formula(rng, vars, 1);
    const Formula assumed = random_formula(rng, vars, 1);

    // Brute force: enumerate the full grid. `points` satisfy the base
    // assertions, `scoped_points` also satisfy scoped and assumed.
    std::vector<std::vector<Int>> points, scoped_points;
    std::vector<Int> a(static_cast<std::size_t>(param.nvars), 0);
    const auto enumerate = [&](auto&& self, int idx) -> void {
      if (idx == param.nvars) {
        const bool base =
            std::all_of(formulas.begin(), formulas.end(),
                        [&](const Formula& f) { return f->eval(a); });
        if (!base) return;
        points.push_back(a);
        if (scoped->eval(a) && assumed->eval(a)) scoped_points.push_back(a);
        return;
      }
      for (Int v = 0; v <= param.domain_hi; ++v) {
        a[static_cast<std::size_t>(idx)] = v;
        self(self, idx + 1);
      }
    };
    enumerate(enumerate, 0);
    const auto hull = [&](const std::vector<std::vector<Int>>& pts, int vi) {
      Interval r = Interval::empty();
      for (const auto& p : pts) {
        const Int x = p[static_cast<std::size_t>(vi)];
        r = r.is_empty() ? Interval{x, x}
                         : Interval{std::min(r.lo, x), std::max(r.hi, x)};
      }
      return r;
    };

    // Each trial runs with the incremental base off and on. With `wide`, an
    // extra unconstrained variable declared over ±kIntInf/2 lifts the
    // solver's largest declared bound so every atom with Σ|cᵢ| > 1 takes the
    // saturating arithmetic path instead of the plain int64 one.
    for (const bool incremental : {false, true}) {
      for (const bool wide : {false, true}) {
        const std::string where =
            "trial " + std::to_string(trial) + " incremental=" +
            std::to_string(incremental) + " wide=" + std::to_string(wide);
        Solver s(SolverConfig{.incremental = incremental});
        for (int i = 0; i < param.nvars; ++i)
          s.add_var("v" + std::to_string(i), 0, param.domain_hi);
        if (wide) s.add_var("wide", -kIntInf / 2 + 1, kIntInf / 2 - 1);
        for (const auto& f : formulas) s.add(f);

        const CheckResult r = s.check();
        ASSERT_NE(r, CheckResult::kUnknown) << "budget too small; " << where;
        EXPECT_EQ(r == CheckResult::kSat, !points.empty()) << where;
        if (r == CheckResult::kSat) {
          // The returned model must actually satisfy every formula.
          for (const auto& f : formulas)
            EXPECT_TRUE(f->eval(s.model())) << where;
        }
        // feasible_interval must match the oracle's min/max for each var.
        for (int vi = 0; vi < param.nvars; ++vi)
          EXPECT_EQ(s.feasible_interval(vars[static_cast<std::size_t>(vi)]),
                    hull(points, vi))
              << "var " << vi << " " << where;

        s.push();
        s.add(scoped);
        const CheckResult rs = s.check_assuming(std::span(&assumed, 1));
        ASSERT_NE(rs, CheckResult::kUnknown) << "budget too small; " << where;
        EXPECT_EQ(rs == CheckResult::kSat, !scoped_points.empty()) << where;
        if (rs == CheckResult::kSat) {
          const std::vector<Int>& m = s.model();
          for (const auto& f : formulas) EXPECT_TRUE(f->eval(m)) << where;
          EXPECT_TRUE(scoped->eval(m)) << where;
          EXPECT_TRUE(assumed->eval(m)) << where;
        }
        for (int vi = 0; vi < param.nvars; ++vi)
          EXPECT_EQ(s.feasible_interval(vars[static_cast<std::size_t>(vi)],
                                        std::span(&assumed, 1)),
                    hull(scoped_points, vi))
              << "scoped var " << vi << " " << where;
        s.pop();

        // Popping the scope restores the base answer.
        EXPECT_EQ(s.check(), r) << "after pop; " << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolverOracleProperty,
    ::testing::Values(OracleCase{1, 2, 6}, OracleCase{2, 2, 6},
                      OracleCase{3, 3, 4}, OracleCase{4, 3, 4},
                      OracleCase{5, 3, 5}, OracleCase{6, 4, 3},
                      OracleCase{7, 4, 3}, OracleCase{8, 2, 12},
                      OracleCase{9, 3, 6}, OracleCase{10, 4, 4}));

// Property: minimize() agrees with brute force on random problems.
class MinimizeOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeOracleProperty, AgreesWithBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  for (int trial = 0; trial < 8; ++trial) {
    constexpr int kVars = 3;
    constexpr Int kHi = 5;
    Solver s;
    std::vector<VarId> vars;
    for (int i = 0; i < kVars; ++i)
      vars.push_back(s.add_var("v" + std::to_string(i), 0, kHi));
    std::vector<Formula> formulas;
    for (int i = 0; i < 2; ++i) {
      Formula f = random_formula(rng, vars, 1);
      formulas.push_back(f);
      s.add(std::move(f));
    }
    LinExpr cost(rng.uniform_int(-3, 3));
    for (const VarId v : vars) cost += LinExpr::term(rng.uniform_int(-2, 2), v);

    std::optional<Int> oracle_best;
    std::vector<Int> a(kVars, 0);
    for (a[0] = 0; a[0] <= kHi; ++a[0])
      for (a[1] = 0; a[1] <= kHi; ++a[1])
        for (a[2] = 0; a[2] <= kHi; ++a[2]) {
          bool ok = true;
          for (const auto& f : formulas)
            if (!f->eval(a)) { ok = false; break; }
          if (!ok) continue;
          const Int c = cost.eval(a);
          if (!oracle_best || c < *oracle_best) oracle_best = c;
        }

    const auto best = s.minimize(cost);
    ASSERT_EQ(best.has_value(), oracle_best.has_value()) << "trial " << trial;
    if (best) {
      EXPECT_TRUE(best->proven_optimal);
      EXPECT_EQ(best->cost, *oracle_best) << "trial " << trial;
      for (const auto& f : formulas) EXPECT_TRUE(f->eval(best->model));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeOracleProperty, ::testing::Range(1, 7));

}  // namespace
}  // namespace lejit::smt
