// Decoder resilience (kUnknown policies, budgets, dead-end recovery).
// DESIGN.md §8 is the narrative version; serve row fault isolation (§8.4)
// is tested with the serving runtime in test_serve.cpp.
#include <gtest/gtest.h>

#include "core/decoder.hpp"
#include "fault/fault.hpp"
#include "lm/ngram.hpp"
#include "rules/checker.hpp"
#include "rules/miner.hpp"
#include "telemetry/generator.hpp"

namespace lejit::core {
namespace {

using telemetry::Window;

// Shared fixture (mirrors test_core_decoder.cpp): a synthetic fleet, a
// trained n-gram over its rows, and the manual rule set.
struct Env {
  telemetry::Dataset dataset;
  telemetry::RowLayout layout;
  std::vector<Window> train;
  lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  std::unique_ptr<lm::NgramModel> model;
  rules::RuleSet manual;
};

const Env& env() {
  static const Env e = [] {
    Env out;
    out.dataset = telemetry::generate_dataset(telemetry::GeneratorConfig{
        .num_racks = 10, .windows_per_rack = 40, .seed = 77});
    out.layout = telemetry::telemetry_row_layout(out.dataset.limits);
    out.train = telemetry::all_windows(out.dataset);
    out.model = std::make_unique<lm::NgramModel>(
        out.tokenizer.vocab_size(), lm::NgramConfig{.order = 6});
    for (const Window& w : out.train)
      out.model->observe(out.tokenizer.encode(telemetry::window_to_row(w)));
    out.manual = rules::manual_rules(out.layout, out.dataset.limits);
    return out;
  }();
  return e;
}

DecoderConfig starved_config(UnknownPolicy policy) {
  DecoderConfig config{.mode = GuidanceMode::kFull};
  config.solver.max_nodes = 1;  // every real check gives up immediately
  config.resilience.on_unknown = policy;
  return config;
}

// --- kUnknown policies -------------------------------------------------------

TEST(UnknownPolicy, InfeasibleReadingStarvesTheMaskToEmpty) {
  // Force *every* check inconclusive (a node budget of 1 is not enough:
  // propagation alone often decides a check at the root node).
  fault::Plan plan;
  plan.site(fault::Site::kSolverCheck).p_unknown = 1.0;
  const fault::ScopedPlan scoped{plan};

  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    starved_config(UnknownPolicy::kInfeasible));
  util::Rng rng(1);
  const DecodeResult r = dec.generate(rng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, FailReason::kEmptyMask);
  EXPECT_FALSE(r.fail_detail.empty());
  EXPECT_GT(r.stats.unknown_checks, 0);
  EXPECT_EQ(r.stats.escalations, 0);
}

TEST(UnknownPolicy, FeasibleReadingKeepsDecodingThroughUnknowns) {
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    starved_config(UnknownPolicy::kFeasible));
  util::Rng rng(2);
  const DecodeResult r = dec.generate(rng);
  // Every check is inconclusive, so guidance degrades to syntax-only — the
  // row still completes and parses (compliance is no longer guaranteed).
  EXPECT_TRUE(r.ok) << r.fail_detail;
  EXPECT_EQ(r.reason, FailReason::kNone);
  EXPECT_GT(r.stats.unknown_checks, 0);
}

TEST(UnknownPolicy, EscalationBuysADefinitiveAnswer) {
  DecoderConfig config = starved_config(UnknownPolicy::kEscalate);
  config.resilience.escalation_factor = 1'000'000;
  config.resilience.max_escalations = 1;
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    config);
  util::Rng rng(3);
  const DecodeResult r = dec.generate(rng);
  ASSERT_TRUE(r.ok) << r.fail_detail;
  EXPECT_TRUE(rules::violated_rules(env().manual, *r.window).empty())
      << r.text;
  EXPECT_GT(r.stats.unknown_checks, 0);
  EXPECT_GT(r.stats.escalations, 0);
}

TEST(UnknownPolicy, ExhaustedEscalationFallsBackToInfeasible) {
  // Injection defeats every escalation round, not just the base budget.
  fault::Plan plan;
  plan.site(fault::Site::kSolverCheck).p_unknown = 1.0;
  const fault::ScopedPlan scoped{plan};

  DecoderConfig config = starved_config(UnknownPolicy::kEscalate);
  config.resilience.max_escalations = 2;
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    config);
  util::Rng rng(4);
  const DecodeResult r = dec.generate(rng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, FailReason::kEmptyMask);
  EXPECT_GT(r.stats.escalations, 0);
}

TEST(UnknownPolicy, InjectedUnknownsPropagateIntoDecodeStats) {
  fault::Plan plan;
  plan.site(fault::Site::kSolverCheck).p_unknown = 1.0;
  const fault::ScopedPlan scoped{plan};

  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    DecoderConfig{.mode = GuidanceMode::kFull});
  util::Rng rng(5);
  const DecodeResult r = dec.generate(rng);  // kFeasible-free default: escalate
  EXPECT_GT(r.stats.unknown_checks, 0);
  EXPECT_GT(fault::Injector::instance().counts().unknowns, 0);
}

// --- per-row budgets ---------------------------------------------------------

TEST(RowBudget, NodeCeilingAbortsWithBudgetExhausted) {
  DecoderConfig config{.mode = GuidanceMode::kFull};
  config.resilience.row_max_nodes = 1;
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    config);
  util::Rng rng(6);
  const DecodeResult r = dec.generate(rng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, FailReason::kBudgetExhausted);
  EXPECT_NE(r.fail_detail.find("node budget"), std::string::npos)
      << r.fail_detail;
}

TEST(RowBudget, DeadlineCeilingAbortsWithBudgetExhausted) {
  // Stall every LM forward 2 ms against a 1 ms row deadline: the ceiling
  // trips at the next step boundary regardless of machine speed.
  fault::Plan plan;
  plan.site(fault::Site::kLmForward) =
      fault::SiteConfig{.p_delay = 1.0, .delay_us = 2000};
  const fault::ScopedPlan scoped{plan};

  DecoderConfig config{.mode = GuidanceMode::kFull};
  config.resilience.row_deadline_ms = 1;
  GuidedDecoder dec(*env().model, env().tokenizer, env().layout, env().manual,
                    config);
  util::Rng rng(7);
  const DecodeResult r = dec.generate(rng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, FailReason::kBudgetExhausted);
  EXPECT_NE(r.fail_detail.find("deadline"), std::string::npos)
      << r.fail_detail;
}

// --- dead-end recovery -------------------------------------------------------

// The engineered hole from test_core_decoder.cpp: rules carve
// {0..10} ∪ {30..40} for I0, and a memorizing LM always writes I0 = 15.
struct Hole {
  rules::RuleSet rules;
  Window row;
  std::unique_ptr<lm::NgramModel> memorizer;
};

Hole make_hole() {
  Hole h;
  const smt::VarId i0{rules::field_index(env().layout, "I0")};
  h.rules.rules.push_back(rules::Rule{
      .description = "I0 in {0..10} u {30..40}",
      .kind = rules::RuleKind::kManual,
      .formula = smt::land(
          smt::lor(smt::le(smt::LinExpr(i0), smt::LinExpr(10)),
                   smt::ge(smt::LinExpr(i0), smt::LinExpr(30))),
          smt::le(smt::LinExpr(i0), smt::LinExpr(40))),
      .uses_fine = true,
  });
  h.row = env().train.front();
  h.row.fine.assign(h.row.fine.size(), 15);
  h.row.total = 15 * static_cast<smt::Int>(h.row.fine.size());
  h.row.ecn = 0;
  h.row.rtx = 0;
  h.row.egress = 10;
  h.memorizer = std::make_unique<lm::NgramModel>(
      env().tokenizer.vocab_size(), lm::NgramConfig{.order = 8});
  for (int i = 0; i < 50; ++i)
    h.memorizer->observe(
        env().tokenizer.encode(telemetry::window_to_row(h.row)));
  return h;
}

TEST(DeadEndRecovery, RecoversTheEngineeredHoleUnderHullGuidance) {
  const Hole h = make_hole();
  DecoderConfig config{.mode = GuidanceMode::kHull,
                       .sampler = {.temperature = 0.0}};
  config.resilience.retry_budget = 3;
  GuidedDecoder dec(*h.memorizer, env().tokenizer, env().layout, h.rules,
                    config);
  util::Rng rng(32);
  const DecodeResult r =
      dec.generate(rng, telemetry::imputation_prompt(h.row));
  ASSERT_TRUE(r.ok) << "reason: " << fail_reason_name(r.reason) << " — "
                    << r.fail_detail;
  EXPECT_FALSE(r.dead_end);
  EXPECT_GE(r.recoveries, 1);
  EXPECT_TRUE(rules::violated_rules(h.rules, *r.window).empty()) << r.text;
  const smt::Int i0_value = r.window->fine[0];
  EXPECT_TRUE((i0_value >= 0 && i0_value <= 10) ||
              (i0_value >= 30 && i0_value <= 40))
      << "I0 = " << i0_value;
}

TEST(DeadEndRecovery, ZeroRetryBudgetPreservesFailStop) {
  const Hole h = make_hole();
  GuidedDecoder dec(*h.memorizer, env().tokenizer, env().layout, h.rules,
                    DecoderConfig{.mode = GuidanceMode::kHull,
                                  .sampler = {.temperature = 0.0}});
  util::Rng rng(32);
  const DecodeResult r =
      dec.generate(rng, telemetry::imputation_prompt(h.row));
  EXPECT_TRUE(r.dead_end);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, FailReason::kDeadEnd);
  EXPECT_EQ(r.recoveries, 0);
  EXPECT_NE(r.fail_detail.find("I0"), std::string::npos) << r.fail_detail;
}

TEST(DeadEndRecovery, ExhaustedRetriesReportTheFinalFailure) {
  const Hole h = make_hole();
  DecoderConfig config{.mode = GuidanceMode::kHull,
                       .sampler = {.temperature = 0.0}};
  config.resilience.retry_budget = 1;
  config.resilience.escalate_guidance = false;  // greedy re-walks the hole
  GuidedDecoder dec(*h.memorizer, env().tokenizer, env().layout, h.rules,
                    config);
  util::Rng rng(32);
  const DecodeResult r =
      dec.generate(rng, telemetry::imputation_prompt(h.row));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason, FailReason::kNone);
  EXPECT_EQ(r.recoveries, 1);
}

TEST(DeadEndRecovery, FailReasonNamesAreStable) {
  EXPECT_EQ(fail_reason_name(FailReason::kNone), "none");
  EXPECT_EQ(fail_reason_name(FailReason::kInfeasiblePrompt),
            "infeasible_prompt");
  EXPECT_EQ(fail_reason_name(FailReason::kDeadEnd), "dead_end");
  EXPECT_EQ(fail_reason_name(FailReason::kEmptyMask), "empty_mask");
  EXPECT_EQ(fail_reason_name(FailReason::kBudgetExhausted),
            "budget_exhausted");
  EXPECT_EQ(fail_reason_name(FailReason::kFault), "fault");
}

}  // namespace
}  // namespace lejit::core
