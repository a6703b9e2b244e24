// Fig. 3 (right): runtime to impute a 30K-sample test set.
//
// Paper shape targets: rejection sampling is the slowest by far (>2 days in
// the paper), LeJIT completes the workload in hours (>10× faster than
// rejection), vanilla decoding is fastest but violates rules. We measure
// per-sample latency on a scaled-down sample count and extrapolate to the
// paper's 30K samples; absolute numbers differ (our LM substrate is a
// trained n-gram, not GPT-2 on a GPU) but the ordering and ratios are the
// reproduction target.
//
// google-benchmark micro-timings for the per-method sample latency come
// first; the binary then prints the extrapolated Fig. 3 (right) table.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>

#include "baselines/rejection.hpp"
#include "baselines/zoom2net.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smt/backend.hpp"
#include "telemetry/text.hpp"
#include "util/timer.hpp"

namespace {

using namespace lejit;
using bench::BenchEnv;
using telemetry::Window;

// --smoke: tiny environment + reduced sample counts so CI can run the whole
// binary (including the cache on/off comparison) in seconds. Set in main()
// before env() is first touched.
bool g_smoke = false;

// argv[0], for locating the bundled lejit_smtserve in the build tree.
std::string g_argv0;

// External SMT-LIB2 solver for the backend ablation: a real z3/cvc5 when one
// is around (find_external_solver's usual ladder), else the bundled
// lejit_smtserve, which bench binaries see at ../tools relative to
// themselves. Empty string = no subprocess leg, reported as unavailable.
std::string resolve_subprocess_solver() {
  std::string found = smt::find_external_solver(g_argv0);
  if (!found.empty()) return found;
  const auto slash = g_argv0.find_last_of('/');
  if (slash != std::string::npos) {
    const std::string sibling =
        g_argv0.substr(0, slash) + "/../tools/lejit_smtserve";
    if (::access(sibling.c_str(), X_OK) == 0) return sibling;
  }
  return {};
}

const BenchEnv& env() {
  static const BenchEnv e = bench::make_env(
      g_smoke ? bench::BenchEnvConfig{.racks = 8,
                                      .windows_per_rack = 30,
                                      .test_racks = 2,
                                      .use_transformer = false}
              : bench::BenchEnvConfig{.use_transformer = true});
  return e;
}

int scaled(int samples) { return g_smoke ? std::max(3, samples / 5) : samples; }

// Eligible prompts (ground truth compatible with the mined rules).
const std::vector<Window>& prompts() {
  static const std::vector<Window> w = [] {
    std::vector<Window> out;
    for (const Window& t : env().test)
      if (rules::violated_rules(env().mined, t).empty()) out.push_back(t);
    return out;
  }();
  return w;
}

void BM_VanillaImpute(benchmark::State& state) {
  core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                          rules::RuleSet{},
                          core::DecoderConfig{.mode = core::GuidanceMode::kSyntax});
  util::Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& w = prompts()[i++ % prompts().size()];
    benchmark::DoNotOptimize(
        dec.generate(rng, telemetry::imputation_prompt(w)));
  }
}
BENCHMARK(BM_VanillaImpute)->Unit(benchmark::kMillisecond);

void BM_Zoom2NetImpute(benchmark::State& state) {
  const baselines::Zoom2NetImputer imputer(env().train, env().dataset.limits);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& w = prompts()[i++ % prompts().size()];
    benchmark::DoNotOptimize(imputer.impute(w));
  }
}
BENCHMARK(BM_Zoom2NetImpute)->Unit(benchmark::kMillisecond);

void BM_LeJitManualImpute(benchmark::State& state) {
  core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                          env().manual,
                          core::DecoderConfig{.mode = core::GuidanceMode::kFull});
  util::Rng rng(2);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& w = prompts()[i++ % prompts().size()];
    benchmark::DoNotOptimize(
        dec.generate(rng, telemetry::imputation_prompt(w)));
  }
}
BENCHMARK(BM_LeJitManualImpute)->Unit(benchmark::kMillisecond);

void BM_LeJitMinedImpute(benchmark::State& state) {
  core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                          env().mined,
                          core::DecoderConfig{.mode = core::GuidanceMode::kFull});
  util::Rng rng(3);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& w = prompts()[i++ % prompts().size()];
    benchmark::DoNotOptimize(
        dec.generate(rng, telemetry::imputation_prompt(w)));
  }
}
BENCHMARK(BM_LeJitMinedImpute)->Unit(benchmark::kMillisecond);

void BM_LeJitMinedPlanImpute(benchmark::State& state) {
  core::DecoderConfig cfg{.mode = core::GuidanceMode::kFull};
  cfg.compile_plan = true;
  core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                          env().mined, cfg);
  util::Rng rng(3);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& w = prompts()[i++ % prompts().size()];
    benchmark::DoNotOptimize(
        dec.generate(rng, telemetry::imputation_prompt(w)));
  }
}
BENCHMARK(BM_LeJitMinedPlanImpute)->Unit(benchmark::kMillisecond);

void BM_RejectionImpute(benchmark::State& state) {
  baselines::RejectionSampler sampler(
      env().lm(), env().tokenizer, env().layout, env().mined,
      baselines::RejectionConfig{.max_attempts = 400});
  util::Rng rng(4);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& w = prompts()[i++ % prompts().size()];
    benchmark::DoNotOptimize(
        sampler.generate(rng, telemetry::imputation_prompt(w)));
  }
}
BENCHMARK(BM_RejectionImpute)->Unit(benchmark::kMillisecond)->Iterations(8);

// Per-mode wall-clock plus an obs snapshot taken over exactly that mode's
// samples (the registry and tracer are reset before each measured loop).
struct ModeRun {
  std::string name;
  double sec_per_sample = 0.0;
  int samples = 0;
  // smt.check_latency_us percentiles over this mode's solver checks.
  std::int64_t solver_checks = 0;
  double check_p50_us = 0.0, check_p90_us = 0.0, check_p99_us = 0.0;
  // Inclusive phase totals (lm_forward and solver_check never nest).
  std::int64_t lm_forward_ns = 0, solver_check_ns = 0;
  std::int64_t mask_build_ns = 0, sampling_ns = 0;
  std::int64_t lm_forwards = 0;
  // Solver work + feasibility-cache traffic over this mode's samples.
  std::int64_t solver_propagations = 0;
  std::int64_t cache_hits = 0, cache_misses = 0;
  // Decode-plan effect (zero unless an active plan drove the decoder).
  std::int64_t plan_table_hits = 0, plan_sliced_queries = 0;
  std::int64_t plan_sliced_rules = 0;
  // Abstract-interpretation prefilter traffic (zero when absint is off).
  std::int64_t absint_checks = 0, absint_hits = 0;
};

// Wall-clock measurement used for the extrapolated table (independent of
// google-benchmark's iteration policy so every method sees the same prompts).
ModeRun run_mode(std::string name, int samples,
                 const std::function<void(const Window&)>& fn) {
  ModeRun run;
  run.name = std::move(name);
  run.samples = samples;

  auto& registry = lejit::obs::MetricsRegistry::instance();
  auto& tracer = lejit::obs::Tracer::instance();
  if (lejit::obs::metrics_enabled()) {
    registry.reset();
    tracer.reset();
  }

  util::Timer timer;
  for (int i = 0; i < samples; ++i)
    fn(prompts()[static_cast<std::size_t>(i) % prompts().size()]);
  run.sec_per_sample = timer.elapsed_seconds() / samples;

  if (lejit::obs::metrics_enabled()) {
    const auto& checks = registry.histogram("smt.check_latency_us");
    run.solver_checks = checks.count();
    run.check_p50_us = checks.percentile(0.50);
    run.check_p90_us = checks.percentile(0.90);
    run.check_p99_us = checks.percentile(0.99);
    const auto lm = tracer.totals(lejit::obs::Phase::kLmForward);
    run.lm_forwards = lm.count;
    run.lm_forward_ns = lm.total_ns;
    run.solver_check_ns =
        tracer.totals(lejit::obs::Phase::kSolverCheck).total_ns;
    run.mask_build_ns = tracer.totals(lejit::obs::Phase::kMaskBuild).total_ns;
    run.sampling_ns = tracer.totals(lejit::obs::Phase::kSampling).total_ns;
    run.solver_propagations = registry.counter("smt.propagations").value();
    run.cache_hits = registry.counter("decode.cache.hits").value();
    run.cache_misses = registry.counter("decode.cache.misses").value();
    run.plan_table_hits = registry.counter("decode.plan.table_hits").value();
    run.plan_sliced_queries =
        registry.counter("decode.plan.sliced_queries").value();
    run.plan_sliced_rules =
        registry.counter("decode.plan.sliced_rules").value();
    run.absint_checks =
        registry.counter("decode.absint.prefilter_checks").value();
    run.absint_hits = registry.counter("decode.absint.prefilter_hits").value();
  }
  return run;
}

// Renders the per-mode captures as the "modes" section of the JSON report:
// wall-clock, solver-check latency percentiles, and the lm_forward and
// solver_check shares of the mode's wall-clock time that Fig. 3's
// discussion is about.
std::string modes_json(const std::vector<ModeRun>& runs) {
  lejit::obs::JsonWriter w;
  w.begin_array();
  for (const ModeRun& r : runs) {
    const double lm_s = static_cast<double>(r.lm_forward_ns) * 1e-9;
    const double solver_s = static_cast<double>(r.solver_check_ns) * 1e-9;
    const double wall_s = r.sec_per_sample * r.samples;
    w.begin_object();
    w.key("name").value(r.name);
    w.key("samples").value(r.samples);
    w.key("ms_per_sample").value(r.sec_per_sample * 1e3);
    w.key("wall_clock_s").value(wall_s);
    w.key("solver_check_latency_us").begin_object();
    w.key("count").value(r.solver_checks);
    w.key("p50").value(r.check_p50_us);
    w.key("p90").value(r.check_p90_us);
    w.key("p99").value(r.check_p99_us);
    w.end_object();
    w.key("phase_seconds").begin_object();
    w.key("lm_forward").value(lm_s);
    w.key("solver_check").value(solver_s);
    w.key("mask_build").value(static_cast<double>(r.mask_build_ns) * 1e-9);
    w.key("sampling").value(static_cast<double>(r.sampling_ns) * 1e-9);
    w.end_object();
    w.key("lm_forwards").value(r.lm_forwards);
    w.key("solver_propagations").value(r.solver_propagations);
    w.key("cache").begin_object();
    w.key("hits").value(r.cache_hits);
    w.key("misses").value(r.cache_misses);
    w.end_object();
    w.key("plan").begin_object();
    w.key("table_hits").value(r.plan_table_hits);
    w.key("sliced_queries").value(r.plan_sliced_queries);
    w.key("sliced_rules").value(r.plan_sliced_rules);
    w.end_object();
    w.key("absint").begin_object();
    w.key("prefilter_checks").value(r.absint_checks);
    w.key("prefilter_hits").value(r.absint_hits);
    w.end_object();
    w.key("split").begin_object();
    w.key("lm_forward_frac").value(wall_s > 0.0 ? lm_s / wall_s : 0.0);
    w.key("solver_check_frac").value(wall_s > 0.0 ? solver_s / wall_s : 0.0);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  return w.str();
}

void print_fig3_right(bench::JsonReport& report) {
  constexpr int kPaperSamples = 30'000;

  std::vector<ModeRun> rows;

  {
    core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                            rules::RuleSet{},
                            core::DecoderConfig{.mode = core::GuidanceMode::kSyntax});
    util::Rng rng(5);
    rows.push_back(run_mode("Vanilla LM", scaled(60), [&](const Window& w) {
      (void)dec.generate(rng, telemetry::imputation_prompt(w));
    }));
  }
  {
    const baselines::Zoom2NetImputer imputer(env().train, env().dataset.limits);
    rows.push_back(run_mode("Zoom2Net*", scaled(200),
                            [&](const Window& w) { (void)imputer.impute(w); }));
  }
  {
    core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                            env().manual,
                            core::DecoderConfig{.mode = core::GuidanceMode::kFull});
    util::Rng rng(6);
    rows.push_back(run_mode("LeJIT (manual rules)", scaled(60),
                            [&](const Window& w) {
      (void)dec.generate(rng, telemetry::imputation_prompt(w));
    }));
  }
  // Cache ablation: the mined-rules workload runs twice — feasibility cache
  // on (DecoderConfig default) and off — over the same prompts with the same
  // seed. The decodes must be bit-identical (see DESIGN.md §9); the run pair
  // is also what BENCH_3.json's propagation/latency acceptance check reads.
  std::vector<std::string> mined_texts;
  {
    core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                            env().mined,
                            core::DecoderConfig{.mode = core::GuidanceMode::kFull});
    util::Rng rng(7);
    rows.push_back(run_mode("LeJIT (mined rules)", scaled(40),
                            [&](const Window& w) {
      mined_texts.push_back(dec.generate(rng, telemetry::imputation_prompt(w)).text);
    }));
  }
  bool cache_bit_identical = true;
  {
    core::DecoderConfig cfg{.mode = core::GuidanceMode::kFull};
    cfg.cache = false;
    core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                            env().mined, cfg);
    util::Rng rng(7);
    std::size_t i = 0;
    rows.push_back(run_mode("LeJIT (mined, no cache)", scaled(40),
                            [&](const Window& w) {
      const auto res = dec.generate(rng, telemetry::imputation_prompt(w));
      if (i >= mined_texts.size() || res.text != mined_texts[i])
        cache_bit_identical = false;
      ++i;
    }));
  }
  // Plan ablation: the same mined workload once more, driven by a decode
  // plan compiled in the constructor (outside the measured loop — plan
  // compilation is a static, per-rule-set cost). The decodes must again be
  // bit-identical (DESIGN.md §11); BENCH_5's acceptance check reads this run
  // pair for the propagation reduction and the decode.plan.* counters.
  bool plan_bit_identical = true;
  std::int64_t plan_compile_checks = 0;
  {
    core::DecoderConfig cfg{.mode = core::GuidanceMode::kFull};
    cfg.compile_plan = true;
    core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                            env().mined, cfg);
    plan_compile_checks = dec.decode_plan()->solver_checks;
    util::Rng rng(7);
    std::size_t i = 0;
    rows.push_back(run_mode("LeJIT (mined, plan)", scaled(40),
                            [&](const Window& w) {
      const auto res = dec.generate(rng, telemetry::imputation_prompt(w));
      if (i >= mined_texts.size() || res.text != mined_texts[i])
        plan_bit_identical = false;
      ++i;
    }));
  }
  {
    baselines::RejectionSampler sampler(
        env().lm(), env().tokenizer, env().layout, env().mined,
        baselines::RejectionConfig{.max_attempts = 400});
    util::Rng rng(8);
    rows.push_back(run_mode("Rejection sampling", scaled(12),
                            [&](const Window& w) {
      (void)sampler.generate(rng, telemetry::imputation_prompt(w));
    }));
  }
  // Synthesis leg of the plan ablation. Imputation prompts pin the coarse
  // fields, which dirties the (single, densely coupled) mined cluster before
  // any fine field decodes — so the digit tables' always-bits cannot fire
  // there and the plan's effect is slicing only. Synthesis rows start with a
  // clean cluster: the tables answer the whole leading field plus the
  // never-terminator positions of lower-bounded fields without a solver
  // check, which is where the plan beats even PR 4's hull/witness tiers.
  std::vector<std::string> synth_texts;
  bool synth_bit_identical = true;
  {
    core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                            env().mined,
                            core::DecoderConfig{.mode = core::GuidanceMode::kFull});
    util::Rng rng(9);
    rows.push_back(run_mode("LeJIT synth (mined)", scaled(40),
                            [&](const Window&) {
      synth_texts.push_back(dec.generate(rng).text);
    }));
  }
  {
    core::DecoderConfig cfg{.mode = core::GuidanceMode::kFull};
    cfg.compile_plan = true;
    core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                            env().mined, cfg);
    util::Rng rng(9);
    std::size_t i = 0;
    rows.push_back(run_mode("LeJIT synth (mined, plan)", scaled(40),
                            [&](const Window&) {
      const auto res = dec.generate(rng);
      if (i >= synth_texts.size() || res.text != synth_texts[i])
        synth_bit_identical = false;
      ++i;
    }));
  }
  // Backend ablation (DESIGN.md §12): the mined imputation workload once
  // more on (a) the out-of-process SMT-LIB2 backend and (b) a deliberately
  // broken subprocess whose every check degrades to the in-process fallback.
  // Both must stay bit-identical to the in-process run — the backend layer
  // may change where checks execute, never what gets decoded — and the
  // stats blocks account for the wire overhead and the degradation ladder.
  const std::string subprocess_solver = resolve_subprocess_solver();
  bool backend_bit_identical = true;
  int subprocess_row = -1;
  int degraded_row = -1;
  smt::BackendStats subprocess_stats, degraded_stats;
  if (!subprocess_solver.empty()) {
    core::DecoderConfig cfg{.mode = core::GuidanceMode::kFull};
    cfg.backend.kind = smt::BackendKind::kSubprocess;
    cfg.backend.solver_path = subprocess_solver;
    cfg.backend.retry_backoff_ms = 1;
    core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                            env().mined, cfg);
    util::Rng rng(7);
    std::size_t i = 0;
    subprocess_row = static_cast<int>(rows.size());
    rows.push_back(run_mode("LeJIT (mined, subprocess)", scaled(40),
                            [&](const Window& w) {
      const auto res = dec.generate(rng, telemetry::imputation_prompt(w));
      if (i >= mined_texts.size() || res.text != mined_texts[i])
        backend_bit_identical = false;
      ++i;
    }));
    subprocess_stats = dec.backend_stats();
  }
  {
    core::DecoderConfig cfg{.mode = core::GuidanceMode::kFull};
    cfg.backend.kind = smt::BackendKind::kSubprocess;
    cfg.backend.solver_path = "/nonexistent/lejit-bench-degraded-solver";
    cfg.backend.retry_backoff_ms = 1;
    cfg.backend.max_respawns = 1;
    core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                            env().mined, cfg);
    util::Rng rng(7);
    std::size_t i = 0;
    degraded_row = static_cast<int>(rows.size());
    rows.push_back(run_mode("LeJIT (mined, degraded)", scaled(40),
                            [&](const Window& w) {
      const auto res = dec.generate(rng, telemetry::imputation_prompt(w));
      if (i >= mined_texts.size() || res.text != mined_texts[i])
        backend_bit_identical = false;
      ++i;
    }));
    degraded_stats = dec.backend_stats();
  }
  // Absint ablation (DESIGN.md §16.2): the mined imputation workload once
  // more with both the feasibility cache and the abstract-interpretation
  // prefilter off. The "no cache" run above (cache off, absint on — the
  // DecoderConfig default) is the on-leg; this is the off-leg. The cache is
  // disabled on both legs because its negative caching would otherwise
  // absorb exactly the probes the prefilter refutes, masking the solver
  // shedding the pair is meant to isolate — same methodology as the cache
  // ablation itself. The abstraction only ever *refutes* — and a refutation
  // is a proof — so decodes must stay bit-identical to the reference.
  bool absint_bit_identical = true;
  int no_absint_row = -1;
  {
    core::DecoderConfig cfg{.mode = core::GuidanceMode::kFull};
    cfg.cache = false;
    cfg.absint = false;
    core::GuidedDecoder dec(env().lm(), env().tokenizer, env().layout,
                            env().mined, cfg);
    util::Rng rng(7);
    std::size_t i = 0;
    no_absint_row = static_cast<int>(rows.size());
    rows.push_back(run_mode("LeJIT (mined, no cache/absint)", scaled(40),
                            [&](const Window& w) {
      const auto res = dec.generate(rng, telemetry::imputation_prompt(w));
      if (i >= mined_texts.size() || res.text != mined_texts[i])
        absint_bit_identical = false;
      ++i;
    }));
  }
  report.add_raw("modes", modes_json(rows));

  const ModeRun& cached = rows[3];
  const ModeRun& uncached = rows[4];
  const ModeRun& planned = rows[5];
  {
    lejit::obs::JsonWriter w;
    w.begin_object();
    w.key("bit_identical").value(cache_bit_identical);
    w.key("propagations_on").value(cached.solver_propagations);
    w.key("propagations_off").value(uncached.solver_propagations);
    w.key("ms_per_sample_on").value(cached.sec_per_sample * 1e3);
    w.key("ms_per_sample_off").value(uncached.sec_per_sample * 1e3);
    w.key("cache_hits").value(cached.cache_hits);
    w.key("cache_misses").value(cached.cache_misses);
    w.end_object();
    report.add_raw("cache_ablation", w.str());
  }
  const ModeRun& synth_plain = rows[7];
  const ModeRun& synth_plan = rows[8];
  {
    // `off` sums the plain mined runs (cache on, no plan) over both legs so
    // the pair isolates the plan's effect on top of PR 4's
    // incremental/caching machinery; ms_per_sample stays the Fig. 3
    // (imputation) metric. Plan compilation cost is static (once per rule
    // set, in the constructor, outside the measured loops) and is reported
    // as compile_solver_checks rather than folded into per-sample numbers.
    const std::int64_t sliced =
        planned.plan_sliced_queries + synth_plan.plan_sliced_queries;
    const std::int64_t sliced_rules =
        planned.plan_sliced_rules + synth_plan.plan_sliced_rules;
    const double frac =
        sliced > 0 && !env().mined.rules.empty()
            ? static_cast<double>(sliced_rules) /
                  (static_cast<double>(sliced) *
                   static_cast<double>(env().mined.size()))
            : 0.0;
    lejit::obs::JsonWriter w;
    w.begin_object();
    w.key("bit_identical").value(plan_bit_identical && synth_bit_identical);
    w.key("propagations_on")
        .value(planned.solver_propagations + synth_plan.solver_propagations);
    w.key("propagations_off")
        .value(cached.solver_propagations + synth_plain.solver_propagations);
    w.key("ms_per_sample_on").value(planned.sec_per_sample * 1e3);
    w.key("ms_per_sample_off").value(cached.sec_per_sample * 1e3);
    w.key("table_hits")
        .value(planned.plan_table_hits + synth_plan.plan_table_hits);
    w.key("sliced_queries").value(sliced);
    w.key("slice_rule_fraction").value(frac);
    w.key("compile_solver_checks").value(plan_compile_checks);
    w.end_object();
    report.add_raw("plan_ablation", w.str());
  }
  {
    const auto stats_block = [](lejit::obs::JsonWriter& w,
                                const smt::BackendStats& s) {
      w.key("checks").value(s.checks);
      w.key("faults").value(s.faults);
      w.key("spawn_failures").value(s.spawn_failures);
      w.key("respawns").value(s.respawns);
      w.key("degraded").value(s.degraded);
    };
    lejit::obs::JsonWriter w;
    w.begin_object();
    w.key("subprocess_available").value(!subprocess_solver.empty());
    w.key("solver_path").value(subprocess_solver);
    w.key("bit_identical").value(backend_bit_identical);
    w.key("ms_per_sample_inprocess").value(cached.sec_per_sample * 1e3);
    w.key("ms_per_sample_subprocess")
        .value(subprocess_row >= 0
                   ? rows[static_cast<std::size_t>(subprocess_row)]
                             .sec_per_sample * 1e3
                   : 0.0);
    w.key("ms_per_sample_degraded")
        .value(rows[static_cast<std::size_t>(degraded_row)].sec_per_sample *
               1e3);
    w.key("subprocess").begin_object();
    stats_block(w, subprocess_stats);
    w.end_object();
    w.key("degraded_backend").begin_object();
    stats_block(w, degraded_stats);
    w.end_object();
    w.end_object();
    report.add_raw("backend_ablation", w.str());
  }
  const ModeRun& no_absint = rows[static_cast<std::size_t>(no_absint_row)];
  {
    lejit::obs::JsonWriter w;
    w.begin_object();
    w.key("bit_identical").value(absint_bit_identical);
    w.key("prefilter_checks").value(uncached.absint_checks);
    w.key("prefilter_hits").value(uncached.absint_hits);
    w.key("solver_checks_on").value(uncached.solver_checks);
    w.key("solver_checks_off").value(no_absint.solver_checks);
    w.key("propagations_on").value(uncached.solver_propagations);
    w.key("propagations_off").value(no_absint.solver_propagations);
    w.key("ms_per_sample_on").value(uncached.sec_per_sample * 1e3);
    w.key("ms_per_sample_off").value(no_absint.sec_per_sample * 1e3);
    w.end_object();
    report.add_raw("absint_ablation", w.str());
  }

  bench::Table table(
      "Fig. 3 (right) — runtime for the 30K-sample imputation workload "
      "(extrapolated from measured per-sample latency)",
      {"method", "ms/sample", "30K-sample total", "vs LeJIT(mined)"});
  const double lejit = rows[3].sec_per_sample;
  for (const auto& r : rows) {
    const double total_sec = r.sec_per_sample * kPaperSamples;
    std::string total;
    if (total_sec < 120.0)
      total = bench::fmt(total_sec, 1) + " s";
    else if (total_sec < 7200.0)
      total = bench::fmt(total_sec / 60.0, 1) + " min";
    else
      total = bench::fmt(total_sec / 3600.0, 1) + " h";
    table.add_row({r.name, bench::fmt(r.sec_per_sample * 1e3, 3), total,
                   bench::fmt(r.sec_per_sample / lejit, 2) + "x"});
  }
  table.print();

  const double rejection = rows[6].sec_per_sample;
  std::cout << "\nshape: rejection/LeJIT speedup = "
            << bench::fmt(rejection / lejit, 1)
            << "x (paper reports >10x)  -> "
            << (rejection / lejit >= 5.0 ? "HOLDS" : "CHECK") << "\n";

  const double prop_ratio =
      cached.solver_propagations > 0
          ? static_cast<double>(uncached.solver_propagations) /
                static_cast<double>(cached.solver_propagations)
          : 0.0;
  std::cout << "shape: cache on/off decodes bit-identical -> "
            << (cache_bit_identical ? "YES" : "NO *** MISMATCH ***")
            << "\nshape: solver propagations cache-off/cache-on = "
            << bench::fmt(prop_ratio, 1) << "x; ms/sample "
            << bench::fmt(cached.sec_per_sample * 1e3, 3) << " (on) vs "
            << bench::fmt(uncached.sec_per_sample * 1e3, 3) << " (off)\n";

  const double plan_prop_ratio =
      planned.solver_propagations > 0
          ? static_cast<double>(cached.solver_propagations) /
                static_cast<double>(planned.solver_propagations)
          : 0.0;
  std::cout << "shape: plan on/off decodes bit-identical -> "
            << (plan_bit_identical && synth_bit_identical
                    ? "YES"
                    : "NO *** MISMATCH ***")
            << "\nshape: solver propagations plan-off/plan-on = "
            << bench::fmt(plan_prop_ratio, 1) << "x (impute); table hits "
            << planned.plan_table_hits + synth_plan.plan_table_hits
            << ", sliced queries "
            << planned.plan_sliced_queries + synth_plan.plan_sliced_queries
            << "\n";

  std::cout << "shape: backend in-process/subprocess/degraded bit-identical -> "
            << (backend_bit_identical ? "YES" : "NO *** MISMATCH ***") << " (";
  if (subprocess_row >= 0)
    std::cout << "subprocess "
              << bench::fmt(rows[static_cast<std::size_t>(subprocess_row)]
                                    .sec_per_sample * 1e3, 3)
              << " ms/sample via " << subprocess_solver << ", ";
  else
    std::cout << "no external solver found, subprocess leg skipped; ";
  std::cout << "degraded run answered "
            << degraded_stats.degraded << "/" << degraded_stats.checks
            << " checks via the in-process fallback)\n";

  std::cout << "shape: absint on/off decodes bit-identical -> "
            << (absint_bit_identical ? "YES" : "NO *** MISMATCH ***")
            << "\nshape: prefilter answered " << uncached.absint_hits << "/"
            << uncached.absint_checks
            << " feasibility probes (cache-off legs); solver checks "
            << uncached.solver_checks << " (on) vs "
            << no_absint.solver_checks << " (off)\n";
}

}  // namespace

int main(int argc, char** argv) {
  g_argv0 = argv[0];
  // Strip --smoke before google-benchmark parses argv (mirrors JsonReport's
  // handling of --json). Must happen before env() is first touched.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      g_smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  bench::JsonReport report("fig3_runtime", &argc, argv);
  benchmark::Initialize(&argc, argv);
  if (!g_smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_fig3_right(report);
  report.add_env(env().config);
  report.write();
  return 0;
}
