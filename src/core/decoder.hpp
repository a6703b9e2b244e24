// LeJIT's guided decoder: an SMT solver interleaved into LM inference.
//
// This is the paper's core contribution (§3). Generation proceeds character
// by character through the row syntax. Before every token the decoder
// computes the set of tokens from which a rule-compliant completion of the
// whole row still exists — literal syntax positions force one character;
// digit positions are filtered with per-candidate solver look-ahead sat
// checks (transition.hpp builds the completion formula); a field can only be
// terminated if pinning its exact value keeps the rule set satisfiable. The
// LM's distribution is masked to that set and renormalized, so the LM keeps
// every choice that does not lead to a dead end — the paper's "minimally
// invasive" property, which we quantify in DecodeStats.
//
// Four guidance modes provide the paper's comparison axes:
//   kNone   — vanilla sampling (no structure, no rules),
//   kSyntax — grammar-constrained decoding only (§2.2's "constrained
//             decoding" strawman: digit-count legality, no arithmetic),
//   kHull   — interval-hull masking without exact look-ahead: each field is
//             constrained to [min,max] of its feasible set, but holes inside
//             the hull are invisible, so decoding can dead-end (the ablation
//             showing why LeJIT's per-prefix sat checks are necessary),
//   kFull   — LeJIT: exact solver look-ahead against the rule set.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include <cstdint>
#include <memory>
#include <vector>

#include "absint/absint.hpp"
#include "core/feasibility_cache.hpp"
#include "lint/lint.hpp"
#include "lm/lm.hpp"
#include "lm/sampler.hpp"
#include "lm/tokenizer.hpp"
#include "plan/plan.hpp"
#include "rules/rule.hpp"
#include "smt/backend.hpp"
#include "smt/solver.hpp"
#include "telemetry/text.hpp"
#include "util/rng.hpp"

namespace lejit::core {

enum class GuidanceMode { kNone, kSyntax, kHull, kFull };

// What an inconclusive (kUnknown) solver check means to the decoder. Until
// this knob existed, an unknown silently read as infeasible — a slow check
// could strangle the mask down to nothing with no trace of why.
enum class UnknownPolicy {
  kInfeasible,  // conservative: the candidate is masked out
  kFeasible,    // optimistic: keep the candidate; dead-end recovery catches
                // the (rare) case where optimism was wrong
  kEscalate,    // retry the check with a multiplied node budget, then mask
                // the candidate out if it is still inconclusive
};

// Budgets, degradation, and recovery knobs. Defaults are fail-stop
// (retry_budget = 0) so the kHull-vs-kFull ablation semantics the paper
// measures are unchanged unless a caller opts in.
struct ResilienceConfig {
  UnknownPolicy on_unknown = UnknownPolicy::kEscalate;

  // Per-solver-call limits while masking (0 = SolverConfig default / none).
  std::int64_t check_max_nodes = 0;
  std::int64_t check_deadline_ms = 0;

  // Per-row ceilings across all attempts, owned by the decoder (0 = none).
  // Exhaustion aborts the row with FailReason::kBudgetExhausted.
  std::int64_t row_max_nodes = 0;
  std::int64_t row_deadline_ms = 0;

  // kEscalate: each retry multiplies the node budget by escalation_factor,
  // at most max_escalations times per check.
  int escalation_factor = 8;
  int max_escalations = 2;

  // Dead-end recovery: on a dead end or empty mask, rewind backtrack_chars
  // generated characters (further, if needed to reopen the failing field),
  // ban the value that pinned into a hole, and resample — up to retry_budget
  // times per row. 0 = fail-stop (the seed behavior).
  int retry_budget = 0;
  int backtrack_chars = 6;
  // After repeated kHull dead ends, restart the attempt under kFull exact
  // look-ahead instead of hull masking.
  bool escalate_guidance = true;
};

struct DecoderConfig {
  GuidanceMode mode = GuidanceMode::kFull;
  lm::SamplerConfig sampler{};
  // When only one character is legal (literal syntax), emit it without an LM
  // forward pass. Disable to measure pure-LM timing.
  bool skip_forced_literals = true;
  // Safety cap on generated tokens for unguided (kNone) decoding.
  int max_free_tokens = 512;
  // Configuration of the decoder-owned solver (node caps etc.).
  smt::SolverConfig solver{};
  // Which solver substrate answers the decode-time queries (DESIGN.md §12):
  // the in-process minismt (default), or an external SMT-LIB2 subprocess
  // with automatic degradation back to minismt. `backend.solver` is ignored —
  // the decoder installs `solver` (with `incremental = cache`) so the
  // in-process engine is configured identically on every path.
  smt::BackendConfig backend{};
  ResilienceConfig resilience{};
  // Reuse solver work across candidates, steps, and rows: incremental solver
  // scopes mirroring the syntax walk, per-candidate verdict memoization, and
  // interval-hull short-circuiting (DESIGN.md §9). Decoded text is
  // bit-identical either way for a fixed seed; off reproduces the seed's
  // re-solve-everything behavior (CLI: --no-solver-cache).
  bool cache = true;
  // Fail-fast static analysis at load time (DESIGN.md §10): run lint::analyze
  // over the rule set in the constructor and throw util::RuntimeError —
  // naming the conflict subset — if it reports errors, instead of paying for
  // the contradiction per token as dead-end churn. On a clean set the
  // analyzer's static field hulls seed the FeasibilityCache (when `cache` is
  // on), so load-time analysis also warms the decode hot path. Every hull
  // short-circuit agrees with what the solver would answer, so decoded text
  // stays bit-identical with or without the seeding.
  bool lint_on_load = false;
  lint::Config lint{};
  // Static decode plan (DESIGN.md §11). When set, the constructor validates
  // its fingerprint against the rule set + layout and throws
  // util::RuntimeError on a mismatch (a stale plan must never drive masks).
  // When `compile_plan` is set instead, the plan is compiled in the
  // constructor under `plan_config`. An active plan lets kFull decoding
  // answer digit/terminator feasibility from solver-verified tables
  // (decode.plan.table_hits) and route the remaining live queries to a
  // per-cluster solver carrying only the rules the current field can still
  // depend on (decode.plan.sliced_queries). Decoded text is bit-identical
  // with the plan on or off for a fixed seed.
  std::optional<plan::DecodePlan> plan{};
  bool compile_plan = false;
  plan::Config plan_config{};
  // Abstract-interpretation prefilter (DESIGN.md §16). When on, the
  // constructor runs absint::analyze over the rule set once; kFull decoding
  // keeps a per-attempt abstract state (refined by prompt pins and recovery
  // bans) and consults it before every completion/exact feasibility check.
  // The abstraction only ever refutes — and a refutation is a proof — so a
  // hit skips the FeasibilityCache and the solver entirely while decoded
  // text stays bit-identical for a fixed seed (ctest-gated). The analysis
  // intervals also tighten the cache's static hulls. CLI: --no-absint.
  bool absint = true;
};

struct DecodeStats {
  std::int64_t chars = 0;              // characters emitted
  std::int64_t lm_calls = 0;           // LM forward passes
  std::int64_t solver_checks = 0;      // sat checks spent on this row
  std::int64_t masked_steps = 0;       // LM steps with a non-trivial mask
  std::int64_t interventions = 0;      // steps where the mask pruned the argmax
  std::int64_t unknown_checks = 0;     // checks that came back inconclusive
  std::int64_t escalations = 0;        // budget-escalation retries spent
  double removed_mass = 0.0;           // Σ(1 − allowed probability mass)
  // Decode-plan effect (zero unless an active plan drove this row):
  std::int64_t plan_table_hits = 0;      // verdicts served by digit tables
  std::int64_t plan_sliced_queries = 0;  // verdicts routed to a cluster slice
  // Σ over sliced queries of the rules the slice asserted; divided by
  // (plan_sliced_queries · |rule set|) this is the mean fraction of the rule
  // set a sliced query dragged through the solver.
  std::int64_t plan_sliced_rules = 0;
  // Absint prefilter effect (zero unless DecoderConfig::absint drove kFull):
  std::int64_t absint_checks = 0;  // feasibility queries the prefilter saw
  std::int64_t absint_hits = 0;    // queries it refuted without solver/cache

  // Mean probability mass the mask removed per masked step (0 ⇒ the solver
  // never had to override the LM).
  double mean_removed_mass() const {
    return masked_steps == 0 ? 0.0
                             : removed_mass / static_cast<double>(masked_steps);
  }
};

// Machine-readable cause of a failed row. kNone on success; every !ok result
// from a guided mode carries a non-kNone reason (unguided kNone-mode rows may
// simply fail to parse, which is not a decoder failure).
enum class FailReason {
  kNone = 0,
  kInfeasiblePrompt,   // prompt contradicts the rule set (or was inconclusive)
  kDeadEnd,            // no rule-compliant continuation, retries exhausted
  kEmptyMask,          // no legal token at some step, retries exhausted
  kBudgetExhausted,    // per-row node/deadline ceiling hit
  kFault,              // an exception (e.g. injected fault) killed the row;
                       // assigned by serve::Server, not the decoder
};

std::string_view fail_reason_name(FailReason r) noexcept;

struct DecodeResult {
  bool ok = false;
  // True when the prompt's pinned values contradict the rule set (possible
  // for mined rules on unseen racks); no generation was attempted.
  bool infeasible_prompt = false;
  // kHull only: a completed value inside the hull landed in a hole of the
  // feasible set, leaving no rule-compliant continuation (after recovery, if
  // enabled). kFull with an exact-policy solver can never dead-end — that is
  // the point of exact look-ahead.
  bool dead_end = false;
  // Why the row failed, and a human-readable detail string.
  FailReason reason = FailReason::kNone;
  std::string fail_detail;
  // Dead-end recoveries performed (rewind + ban + resample). A row can
  // recover and still end ok = true.
  int recoveries = 0;
  // True when recovery restarted a kHull row under kFull exact look-ahead.
  bool guidance_escalated = false;
  // Solver checks this row that a failed external backend handed to the
  // in-process fallback (0 whenever the minismt backend serves directly).
  // Counted per row so callers can tell "bit-identical to the in-process
  // baseline" from "completed degraded"; the smt.backend.* obs counters
  // carry the process-wide totals.
  std::int64_t backend_degraded = 0;
  std::string text;  // full row text, prompt included (without trailing '\n')
  std::optional<telemetry::Window> window;
  DecodeStats stats;
};

class GuidedDecoder {
 public:
  // `model` and `tokenizer` must outlive the decoder. The tokenizer must
  // cover telemetry::row_alphabet().
  GuidedDecoder(const lm::LanguageModel& model,
                const lm::CharTokenizer& tokenizer,
                const telemetry::RowLayout& layout, rules::RuleSet rules,
                DecoderConfig config = {});

  // Generate one row. For imputation pass the coarse prefix (everything up
  // to and including '|') as `prompt`; for synthesis pass nothing.
  DecodeResult generate(util::Rng& rng, std::string_view prompt = {});

  // Cumulative solver statistics across all generate() calls, aggregated
  // over the main solver and any plan cluster solvers (including retired
  // ones from earlier prompt shapes).
  smt::SolverStats solver_stats() const;
  // Cumulative backend health statistics (degradations, respawns, faults),
  // aggregated like solver_stats(). All zeros under the minismt backend.
  smt::BackendStats backend_stats() const;
  // Cumulative feasibility-cache statistics (all zero when config.cache is
  // off); counted unconditionally, unlike the obs mirrors.
  const FeasibilityCache::Stats& cache_stats() const { return cache_.stats(); }
  const rules::RuleSet& rules() const { return rules_; }
  // The load-time lint report; engaged iff config.lint_on_load was set (and
  // the rule set passed — errors throw from the constructor).
  const std::optional<lint::Report>& lint_report() const {
    return lint_report_;
  }
  // The validated/compiled decode plan, if any.
  const std::optional<plan::DecodePlan>& decode_plan() const { return plan_; }

 private:
  struct Walk;  // syntax-walk state, defined in decoder.cpp

  // (Re)build the per-cluster sliced solvers for a prompt that pins exactly
  // the fields in `prompt_fields` (bitmask). A cluster's slice keeps only its
  // "live" rules — those referencing at least one non-pinned field; rules
  // whose every field is prompt-pinned are proven satisfied by the prompt
  // feasibility check and dropped. A cluster with no live rules gets a null
  // solver (nothing left to ask it).
  void ensure_sliced_solvers(std::uint64_t prompt_fields);

  const lm::LanguageModel& model_;
  const lm::CharTokenizer& tokenizer_;
  telemetry::RowLayout layout_;
  rules::RuleSet rules_;
  DecoderConfig config_;
  // The decode-time solver session, behind the pluggable backend interface.
  // MinismtBackend by default; config_.backend selects others.
  std::unique_ptr<smt::Backend> solver_;
  std::vector<smt::VarId> vars_;
  FeasibilityCache cache_;  // persists across generate() calls
  std::optional<lint::Report> lint_report_;

  // --- decode plan state (all empty/unused when plan_ is not engaged) ---
  std::optional<plan::DecodePlan> plan_;
  // True when plan_ is present, active(), the mode is kFull, and the layout
  // is small enough for the bitmask bookkeeping.
  bool plan_engaged_ = false;
  std::vector<std::uint64_t> rule_field_mask_;  // per rule: referenced fields
  // Per cluster: sliced solver (null = fully prompt-determined) and the
  // number of live rules it asserts. Persist across rows and rebuild only
  // when the prompt's pinned-field set changes.
  std::vector<std::unique_ptr<smt::Backend>> cluster_solvers_;
  std::vector<std::int64_t> cluster_live_rules_;
  std::uint64_t slice_prompt_mask_ = ~std::uint64_t{0};  // sentinel: unbuilt
  smt::SolverStats retired_cluster_stats_;  // stats of discarded slice solvers
  smt::BackendStats retired_cluster_backend_stats_;

  // --- absint prefilter state (config_.absint, DESIGN.md §16) ---
  // Rule-set fixpoint computed once at construction; each attempt copies it
  // into absint_state_ and refines with that attempt's pins and bans. One
  // global state serves both the full solver and plan cluster slices: rules
  // and pins only ever touch the fields they reference, so per-field the
  // state equals the refinement under that field's cluster alone.
  bool absint_on_ = false;
  std::vector<absint::AbsVal> absint_base_;
  std::vector<absint::AbsVal> absint_state_;
};

}  // namespace lejit::core
