// Deeper solver coverage: self-consistency on larger domains (where brute
// force is impossible), incremental push/pop stress against a rebuilt-from-
// scratch oracle, and boundary behaviour of feasible_interval/minimize.
#include <gtest/gtest.h>

#include "smt/solver.hpp"
#include "util/rng.hpp"

namespace lejit::smt {
namespace {

Formula random_formula(util::Rng& rng, const std::vector<VarId>& vars,
                       Int coeff_range, int depth) {
  if (depth == 0 || rng.bernoulli(0.5)) {
    LinExpr e(rng.uniform_int(-coeff_range * 4, coeff_range * 4));
    const int nterms = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < nterms; ++i) {
      const VarId v = vars[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<Int>(vars.size()) - 1))];
      e += LinExpr::term(rng.uniform_int(-coeff_range, coeff_range), v);
    }
    switch (rng.uniform_int(0, 2)) {
      case 0: return le(e, LinExpr(0));
      case 1: return eq(e, LinExpr(0));
      default: return ne(e, LinExpr(0));
    }
  }
  std::vector<Formula> children;
  for (int i = 0; i < 2; ++i)
    children.push_back(random_formula(rng, vars, coeff_range, depth - 1));
  return rng.bernoulli(0.5) ? land(std::move(children))
                            : lor(std::move(children));
}

// Self-consistency on domains far beyond brute force: every SAT model must
// actually satisfy the formulas, and feasible_interval endpoints must be
// tight (endpoint satisfiable, endpoint±1 unsatisfiable).
class LargeDomainSelfConsistency : public ::testing::TestWithParam<int> {};

TEST_P(LargeDomainSelfConsistency, ModelsAndIntervalsAreExact) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  for (int trial = 0; trial < 6; ++trial) {
    Solver s;
    std::vector<VarId> vars;
    for (int i = 0; i < 4; ++i)
      vars.push_back(s.add_var("v" + std::to_string(i), 0, 1'000'000));
    std::vector<Formula> fs;
    for (int i = 0; i < 3; ++i) {
      Formula f = random_formula(rng, vars, 5, 2);
      fs.push_back(f);
      s.add(std::move(f));
    }
    const CheckResult r = s.check();
    if (r != CheckResult::kSat) continue;  // UNSAT is fine; nothing to verify
    for (const auto& f : fs) EXPECT_TRUE(f->eval(s.model()));

    const VarId target = vars[0];
    const Interval iv = s.feasible_interval(target);
    ASSERT_FALSE(iv.is_empty());
    for (const Int endpoint : {iv.lo, iv.hi}) {
      const Formula pin = eq(LinExpr(target), LinExpr(endpoint));
      EXPECT_EQ(s.check_assuming(std::span(&pin, 1)), CheckResult::kSat)
          << "endpoint " << endpoint << " must be feasible";
    }
    if (iv.lo > 0) {
      const Formula below = le(LinExpr(target), LinExpr(iv.lo - 1));
      EXPECT_EQ(s.check_assuming(std::span(&below, 1)), CheckResult::kUnsat);
    }
    if (iv.hi < 1'000'000) {
      const Formula above = ge(LinExpr(target), LinExpr(iv.hi + 1));
      EXPECT_EQ(s.check_assuming(std::span(&above, 1)), CheckResult::kUnsat);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LargeDomainSelfConsistency,
                         ::testing::Range(1, 7));

// Incremental push/pop must behave exactly like a solver rebuilt from the
// same live assertions.
class PushPopStress : public ::testing::TestWithParam<int> {};

TEST_P(PushPopStress, MatchesRebuiltSolver) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 3);
  constexpr int kVars = 3;
  constexpr Int kHi = 9;

  Solver incremental;
  std::vector<VarId> vars;
  for (int i = 0; i < kVars; ++i)
    incremental.add_var("v" + std::to_string(i), 0, kHi);
  for (int i = 0; i < kVars; ++i) vars.push_back(VarId{i});

  // Stack of scopes, each holding the formulas asserted in it.
  std::vector<std::vector<Formula>> scopes(1);
  for (int step = 0; step < 60; ++step) {
    const auto action = rng.uniform_int(0, 3);
    if (action == 0) {
      incremental.push();
      scopes.emplace_back();
    } else if (action == 1 && scopes.size() > 1) {
      incremental.pop();
      scopes.pop_back();
    } else {
      Formula f = random_formula(rng, vars, 3, 1);
      scopes.back().push_back(f);
      incremental.add(std::move(f));
    }

    Solver rebuilt;
    for (int i = 0; i < kVars; ++i)
      rebuilt.add_var("v" + std::to_string(i), 0, kHi);
    for (const auto& scope : scopes)
      for (const auto& f : scope) rebuilt.add(f);

    EXPECT_EQ(incremental.check(), rebuilt.check()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PushPopStress, ::testing::Range(1, 6));

TEST(SolverEdge, SingletonDomains) {
  Solver s;
  const VarId x = s.add_var("x", 5, 5);
  EXPECT_EQ(s.check(), CheckResult::kSat);
  EXPECT_EQ(s.model_value(x), 5);
  EXPECT_EQ(s.feasible_interval(x), (Interval{5, 5}));
}

TEST(SolverEdge, NegativeDomains) {
  Solver s;
  const VarId x = s.add_var("x", -100, -10);
  s.add(ge(LinExpr(x), LinExpr(-50)));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  EXPECT_GE(s.model_value(x), -50);
  EXPECT_LE(s.model_value(x), -10);
  EXPECT_EQ(s.feasible_interval(x), (Interval{-50, -10}));
}

TEST(SolverEdge, LargeCoefficients) {
  Solver s;
  const VarId x = s.add_var("x", 0, 1'000'000);
  const VarId y = s.add_var("y", 0, 1'000'000);
  s.add(eq(1000 * LinExpr(x) - LinExpr(y), LinExpr(0)));
  s.add(ge(LinExpr(y), LinExpr(123'000)));
  s.add(le(LinExpr(y), LinExpr(123'999)));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  EXPECT_EQ(s.model_value(y), 1000 * s.model_value(x));
}

TEST(SolverEdge, PlainArithmeticNeverWrapsPastSaturation) {
  // 2^40 * x reaches 2^70 at x's upper bound: past int64, so this atom must
  // take the saturating path. Wrapped int64 would read the atom's maximum as
  // 2^70 mod 2^64 - 2^50 < 0, drop it as already true, and answer sat.
  for (const bool incremental : {false, true}) {
    Solver s(SolverConfig{.incremental = incremental});
    const VarId x = s.add_var("x", Int{1} << 11, Int{1} << 30);
    s.add(le(LinExpr::term(Int{1} << 40, x), LinExpr(Int{1} << 50)));
    EXPECT_EQ(s.check(), CheckResult::kUnsat) << "incremental=" << incremental;
  }
}

TEST(SolverEdge, SplitReachesValuesBetweenLowerBoundAndMidpoint) {
  // y = x + 10 and x + y avoids 10, 20, 22, 24, 26: only x in [1, 4] is
  // feasible. The two-variable != atoms prune nothing at the root, so the
  // split on x in [0, 8] must refute {0}, then find the models in the
  // [lo+1, mid] child; the [mid+1, hi] child is all infeasible.
  for (const bool incremental : {false, true}) {
    Solver s(SolverConfig{.incremental = incremental});
    const VarId x = s.add_var("x", 0, 8);
    const VarId y = s.add_var("y", 0, 20);
    s.add(eq(LinExpr(y), LinExpr(x) + LinExpr(10)));
    for (const Int sum : {10, 20, 22, 24, 26})
      s.add(ne(LinExpr(x) + LinExpr(y), LinExpr(sum)));
    ASSERT_EQ(s.check(), CheckResult::kSat) << "incremental=" << incremental;
    EXPECT_EQ(s.feasible_interval(x), (Interval{1, 4}));
  }
}

TEST(SolverEdge, DomainOutsideSafeRangeRejected) {
  Solver s;
  EXPECT_THROW(s.add_var("x", -kIntInf, kIntInf), util::PreconditionError);
}

TEST(SolverEdge, ManyDisjunctionsStillDecided) {
  // A chain of 20 two-way choices with one globally consistent path.
  Solver s;
  std::vector<VarId> vars;
  for (int i = 0; i < 20; ++i)
    vars.push_back(s.add_var("b" + std::to_string(i), 0, 1));
  for (int i = 0; i + 1 < 20; ++i) {
    // b_{i+1} == b_i (disguised as a disjunction of conjunctions).
    s.add(lor(land(eq(LinExpr(vars[static_cast<std::size_t>(i)]), LinExpr(0)),
                   eq(LinExpr(vars[static_cast<std::size_t>(i + 1)]), LinExpr(0))),
              land(eq(LinExpr(vars[static_cast<std::size_t>(i)]), LinExpr(1)),
                   eq(LinExpr(vars[static_cast<std::size_t>(i + 1)]), LinExpr(1)))));
  }
  s.add(eq(LinExpr(vars[0]), LinExpr(1)));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  for (const VarId v : vars) EXPECT_EQ(s.model_value(v), 1);
  s.add(eq(LinExpr(vars[19]), LinExpr(0)));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
}

TEST(SolverEdge, MinimizeRespectsScopedAssertions) {
  Solver s;
  const VarId x = s.add_var("x", 0, 100);
  s.add(ge(LinExpr(x), LinExpr(10)));
  s.push();
  s.add(ge(LinExpr(x), LinExpr(40)));
  const auto inner = s.minimize(LinExpr(x));
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(inner->cost, 40);
  s.pop();
  const auto outer = s.minimize(LinExpr(x));
  ASSERT_TRUE(outer.has_value());
  EXPECT_EQ(outer->cost, 10);
}

TEST(SolverEdge, MaximizeViaNegatedCost) {
  Solver s;
  const VarId x = s.add_var("x", 0, 100);
  s.add(le(LinExpr(x), LinExpr(63)));
  const auto best = s.minimize(-LinExpr(x));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ((*best).model[static_cast<std::size_t>(x.index)], 63);
}

}  // namespace
}  // namespace lejit::smt
