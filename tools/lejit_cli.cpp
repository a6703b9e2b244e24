// lejit_cli — the LeJIT workflow from the command line.
//
//   lejit_cli generate --racks 20 --windows 80 --seed 1 --out corpus.txt
//   lejit_cli mine     --corpus corpus.txt --out rules.txt [--coarse-only]
//   lejit_cli train    --corpus corpus.txt --steps 300 --out model.bin
//   lejit_cli synth    --model model.bin --rules rules.txt --count 20
//   lejit_cli impute   --model model.bin --rules rules.txt --prompts coarse.txt
//   lejit_cli serve-bench --model model.bin --rules rules.txt --workers 2 --batch 4
//   lejit_cli check    --rules rules.txt --rows rows.txt
//   lejit_cli lint     --rules rules.txt [--json]
//   lejit_cli plan     --rules rules.txt [--json] [--out plan.json]
//
// Rows use the telemetry text format (telemetry/text.hpp) under the default
// schema limits; rule files use the rules/parser.hpp syntax, so mined rule
// sets are editable by hand before being enforced. Generated/imputed rows go
// to stdout; diagnostics go to stderr.
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "absint/diff.hpp"
#include "core/batch.hpp"
#include "core/decoder.hpp"
#include "lint/lint.hpp"
#include "serve/serve.hpp"
#include "util/timer.hpp"
#include "smt/diff.hpp"
#include "lm/trainer.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/plan.hpp"
#include "plan/verify.hpp"
#include "rules/checker.hpp"
#include "rules/miner.hpp"
#include "rules/parser.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/text.hpp"
#include "util/strings.hpp"

using namespace lejit;

namespace {

// argv[0], for resolving a sibling `lejit_smtserve` in backend specs.
std::string g_argv0;

// --- tiny argv parser -----------------------------------------------------------
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string_view a = argv[i];
      if (a.starts_with("--")) {
        const std::string key(a.substr(2));
        if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
          values_[key] = argv[++i];
        } else {
          values_[key] = "true";  // boolean flag
        }
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const auto v = util::parse_int(it->second);
    if (!v) {
      std::cerr << "error: --" << key << " expects an integer\n";
      std::exit(2);
    }
    return *v;
  }
  bool has(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot read " << path << "\n";
    std::exit(2);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(2);
  }
}

rules::RuleSet load_rules(const std::string& path,
                          const telemetry::RowLayout& layout) {
  const auto parsed = rules::parse_rules(read_file(path), layout);
  for (const auto& e : parsed.errors)
    std::cerr << path << ":" << e.line << ": " << e.message << "\n";
  if (!parsed.ok()) std::exit(2);
  return parsed.rules;
}

int cmd_generate(const Args& args) {
  telemetry::GeneratorConfig cfg;
  cfg.num_racks = static_cast<int>(args.get_int("racks", 20));
  cfg.windows_per_rack = static_cast<int>(args.get_int("windows", 80));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto dataset = telemetry::generate_dataset(cfg);

  std::string corpus;
  for (const auto& w : telemetry::all_windows(dataset))
    corpus += args.has("coarse") ? telemetry::window_to_coarse_row(w)
                                 : telemetry::window_to_row(w);
  const std::string out = args.get("out", "");
  if (out.empty())
    std::cout << corpus;
  else
    write_file(out, corpus);
  std::cerr << "generated " << dataset.total_windows() << " windows ("
            << cfg.num_racks << " racks)\n";
  return 0;
}

int cmd_mine(const Args& args) {
  const telemetry::Limits limits;
  const auto layout = telemetry::telemetry_row_layout(limits);
  const auto parsed =
      telemetry::parse_corpus(read_file(args.get("corpus", "corpus.txt")), limits);
  if (parsed.windows.empty()) {
    std::cerr << "error: corpus holds no valid rows (" << parsed.malformed
              << " malformed)\n";
    return 2;
  }
  rules::MinerConfig cfg;
  cfg.slack = static_cast<double>(args.get_int("slack-pct", 5)) / 100.0;
  auto report = rules::mine_rules(parsed.windows, layout, limits, cfg);
  rules::RuleSet set = args.has("coarse-only") ? report.rules.coarse_only()
                                               : std::move(report.rules);
  const std::string out = args.get("out", "");
  if (out.empty())
    std::cout << set.to_text();
  else
    write_file(out, set.to_text());
  std::cerr << "mined " << set.size() << " rules from "
            << parsed.windows.size() << " windows (" << report.bounds
            << " bounds, " << report.sums << " accounting, "
            << report.implications << " implications, " << report.pairwise
            << " pairwise; dropped " << report.dropped_by_validation
            << " in validation)\n";
  return 0;
}

int cmd_train(const Args& args) {
  const telemetry::Limits limits;
  const auto parsed =
      telemetry::parse_corpus(read_file(args.get("corpus", "corpus.txt")), limits);
  if (parsed.windows.empty()) {
    std::cerr << "error: corpus holds no valid rows\n";
    return 2;
  }
  const lm::CharTokenizer tokenizer(telemetry::row_alphabet());
  std::vector<std::vector<int>> rows;
  for (const auto& w : parsed.windows)
    rows.push_back(tokenizer.encode(telemetry::window_to_row(w)));

  util::Rng init_rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  lm::Transformer model(
      lm::TransformerConfig{.vocab_size = tokenizer.vocab_size(),
                            .d_model = static_cast<int>(args.get_int("dmodel", 64)),
                            .n_layers = static_cast<int>(args.get_int("layers", 2)),
                            .n_heads = static_cast<int>(args.get_int("heads", 4)),
                            .d_ff = static_cast<int>(args.get_int("dff", 128)),
                            .max_seq = 64},
      init_rng);
  util::Rng train_rng(init_rng.next_u64());
  const auto report = lm::train_lm(
      model, rows,
      lm::TrainConfig{.steps = static_cast<int>(args.get_int("steps", 300)),
                      .batch_size = 16,
                      .adam = lm::AdamConfig{.lr = 2e-3f},
                      .warmup_steps = 20,
                      .log_every = 50},
      train_rng,
      [](int step, float loss) {
        std::cerr << "  step " << step << "  loss " << loss << "\n";
      });
  const std::string out = args.get("out", "model.bin");
  model.save(out);
  std::cerr << "trained " << model.num_parameters() << " params, loss "
            << report.first_loss << " -> " << report.final_loss
            << "; saved to " << out << "\n";
  return 0;
}

// Resilience knobs shared by synth and impute (see DESIGN.md §8).
core::ResilienceConfig resilience_from_args(const Args& args) {
  core::ResilienceConfig res;
  const std::string policy = args.get("on-unknown", "escalate");
  if (policy == "infeasible") {
    res.on_unknown = core::UnknownPolicy::kInfeasible;
  } else if (policy == "feasible") {
    res.on_unknown = core::UnknownPolicy::kFeasible;
  } else if (policy == "escalate") {
    res.on_unknown = core::UnknownPolicy::kEscalate;
  } else {
    std::cerr << "error: --on-unknown expects infeasible|feasible|escalate\n";
    std::exit(2);
  }
  res.check_deadline_ms = args.get_int("solver-deadline-ms", 0);
  res.row_deadline_ms = args.get_int("row-deadline-ms", 0);
  res.retry_budget = static_cast<int>(args.get_int("retry-budget", 0));
  return res;
}

// The full decoder configuration the resilience/plan/backend flags describe.
// Shared by the per-row commands (synth, impute) and the serve runtime,
// which hands the same config to every pooled session.
core::DecoderConfig decoder_config_from_args(const Args& args,
                                             const telemetry::RowLayout& layout,
                                             const rules::RuleSet& rules) {
  core::DecoderConfig config{.mode = core::GuidanceMode::kFull};
  config.solver.max_nodes = args.get_int("max-nodes", config.solver.max_nodes);
  config.resilience = resilience_from_args(args);
  config.cache = !args.has("no-solver-cache");
  // Abstract-interpretation prefilter (DESIGN.md §16): refutation-only, so
  // decodes are bit-identical either way; --no-absint exists for perf A/B
  // runs and debugging, mirroring --no-solver-cache.
  config.absint = !args.has("no-absint");
  // Solver substrate (DESIGN.md §12): in-process minismt, or an external
  // SMT-LIB2 subprocess with automatic degradation back to minismt.
  config.backend =
      smt::backend_config_from_spec(args.get("smt-backend", "minismt"),
                                    g_argv0);
  // Fail fast on contradictory/degenerate rule sets before any decode; the
  // analyzer's static hulls also pre-warm the feasibility cache.
  config.lint_on_load = args.has("lint");
  // Static decode plan (DESIGN.md §11): load a compiled artifact, or compile
  // one in-process. The fingerprint is checked here (not just in the decoder
  // constructor) so a stale artifact gets the documented exit code 1 rather
  // than the generic error exit.
  if (args.has("plan")) {
    plan::DecodePlan loaded = plan::from_json(read_file(args.get("plan", "")));
    if (loaded.fingerprint != plan::rule_set_fingerprint(rules, layout)) {
      std::cerr << "error: stale decode plan " << args.get("plan", "")
                << ": fingerprint does not match this rule set and layout "
                   "(recompile with `lejit_cli plan`)\n";
      std::exit(1);
    }
    // Translation validation before trusting the artifact (DESIGN.md §14):
    // every claim is re-proved through the same backend substrate the
    // decode will use. Decode output is bit-identical with or without this
    // gate — it only decides whether the artifact is used at all.
    if (args.has("verify-plan")) {
      plan::verify::Config vcfg;
      vcfg.check_max_nodes = config.solver.max_nodes;
      vcfg.backend = config.backend;
      const auto cert = plan::verify::run(loaded, rules, layout, vcfg);
      if (!cert.ok()) {
        std::cerr << "error: decode plan " << args.get("plan", "")
                  << " failed verification:\n"
                  << plan::verify::to_text(cert);
        std::exit(1);
      }
      std::cerr << "plan-verify: artifact certified (" << cert.solver_checks
                << " re-proof checks)\n";
    }
    config.plan = std::move(loaded);
  } else if (args.has("plan-compile")) {
    config.compile_plan = true;
  }
  return config;
}

core::GuidedDecoder make_decoder(const Args& args,
                                 const lm::Transformer& model,
                                 const lm::CharTokenizer& tokenizer,
                                 const telemetry::RowLayout& layout,
                                 rules::RuleSet rules) {
  core::DecoderConfig config = decoder_config_from_args(args, layout, rules);
  return core::GuidedDecoder(model, tokenizer, layout, std::move(rules),
                             config);
}

int cmd_synth(const Args& args) {
  const telemetry::Limits limits;
  const auto layout = telemetry::telemetry_row_layout(limits);
  const lm::CharTokenizer tokenizer(telemetry::row_alphabet());
  const lm::Transformer model =
      lm::Transformer::load(args.get("model", "model.bin"));
  auto decoder = make_decoder(args, model, tokenizer, layout,
                              load_rules(args.get("rules", "rules.txt"), layout));
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const auto count = args.get_int("count", 10);
  std::size_t compliant = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    const auto r = decoder.generate(rng);
    if (!r.ok) continue;
    std::cout << r.text << "\n";
    ++compliant;
  }
  std::cerr << "emitted " << compliant << "/" << count << " compliant rows\n";
  return 0;
}

int cmd_impute(const Args& args) {
  const telemetry::Limits limits;
  const auto layout = telemetry::telemetry_row_layout(limits);
  const auto coarse_layout = telemetry::coarse_row_layout(limits);
  const lm::CharTokenizer tokenizer(telemetry::row_alphabet());
  const lm::Transformer model =
      lm::Transformer::load(args.get("model", "model.bin"));
  auto decoder = make_decoder(args, model, tokenizer, layout,
                              load_rules(args.get("rules", "rules.txt"), layout));
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  std::size_t done = 0, infeasible = 0;
  for (const auto line :
       util::split(read_file(args.get("prompts", "prompts.txt")), '\n')) {
    if (util::trim(line).empty()) continue;
    const auto coarse = telemetry::parse_row(line, coarse_layout);
    if (!coarse) {
      std::cerr << "skipping malformed prompt row: " << line << "\n";
      continue;
    }
    const auto r =
        decoder.generate(rng, telemetry::imputation_prompt(*coarse));
    if (r.infeasible_prompt) {
      ++infeasible;
      std::cerr << "infeasible prompt (rules contradict it): " << line << "\n";
      continue;
    }
    if (r.ok) {
      std::cout << r.text << "\n";
      ++done;
    }
  }
  std::cerr << "imputed " << done << " rows, " << infeasible
            << " infeasible prompts\n";
  return 0;
}

// Batched serving runtime (DESIGN.md §13): decode many rows through a pooled
// Server instead of a single sequential decoder, and report the realized
// throughput and batching. With --verify, the same workload is re-decoded
// sequentially and the outputs are compared byte for byte — serve's
// determinism contract says they must match exactly.
int cmd_serve_bench(const Args& args) {
  const telemetry::Limits limits;
  const auto layout = telemetry::telemetry_row_layout(limits);
  const auto coarse_layout = telemetry::coarse_row_layout(limits);
  const lm::CharTokenizer tokenizer(telemetry::row_alphabet());
  const lm::Transformer model =
      lm::Transformer::load(args.get("model", "model.bin"));
  const rules::RuleSet rules =
      load_rules(args.get("rules", "rules.txt"), layout);
  const core::DecoderConfig decoder_config =
      decoder_config_from_args(args, layout, rules);

  // Synthesis rows by default; --prompts FILE switches to imputation over
  // the file's coarse rows.
  std::vector<std::string> prompts;
  if (args.has("prompts")) {
    for (const auto line :
         util::split(read_file(args.get("prompts", "")), '\n')) {
      if (util::trim(line).empty()) continue;
      const auto coarse = telemetry::parse_row(line, coarse_layout);
      if (!coarse) {
        std::cerr << "skipping malformed prompt row: " << line << "\n";
        continue;
      }
      prompts.push_back(telemetry::imputation_prompt(*coarse));
    }
  } else {
    prompts.assign(static_cast<std::size_t>(args.get_int("count", 64)),
                   std::string());
  }

  serve::ServeConfig serve_config;
  serve_config.workers = static_cast<int>(args.get_int("workers", 2));
  serve_config.batch = static_cast<int>(args.get_int("batch", 4));
  serve_config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  serve::Server server(model, tokenizer, layout, rules, decoder_config,
                       serve_config);
  util::Timer timer;
  const auto results = server.run(prompts);
  const double seconds = timer.elapsed_seconds();
  const serve::ServeStats stats = server.stats();

  std::size_t ok = 0;
  for (const auto& r : results)
    if (r.ok) {
      std::cout << r.text << "\n";
      ++ok;
    }
  std::cerr << "serve: " << results.size() << " rows in "
            << util::format_double(seconds, 3) << "s ("
            << util::format_double(
                   seconds > 0.0 ? static_cast<double>(results.size()) / seconds
                                 : 0.0,
                   1)
            << " rows/s) with " << serve_config.workers << " worker(s) x "
            << serve_config.batch << " session(s); " << ok << " ok, "
            << stats.degraded_rows << " degraded, " << stats.row_retries
            << " row retries; mean batch width "
            << util::format_double(stats.mean_batch_width(), 2) << " over "
            << stats.batched_forwards << " batched forwards\n";

  if (args.has("verify")) {
    core::GuidedDecoder decoder(model, tokenizer, layout, rules,
                                decoder_config);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
      util::Rng rng = core::row_rng(serve_config.seed, i, 0);
      const auto r = decoder.generate(rng, prompts[i]);
      if (r.text != results[i].text || r.ok != results[i].ok) ++mismatches;
    }
    std::cerr << "verify: " << (prompts.size() - mismatches) << "/"
              << prompts.size() << " rows bit-identical to sequential decode"
              << (mismatches ? " *** MISMATCH ***" : "") << "\n";
    if (mismatches) return 1;
  }
  return 0;
}

int cmd_check(const Args& args) {
  const telemetry::Limits limits;
  const auto layout = telemetry::telemetry_row_layout(limits);
  const auto set = load_rules(args.get("rules", "rules.txt"), layout);
  const auto parsed =
      telemetry::parse_corpus(read_file(args.get("rows", "rows.txt")), limits);
  const auto stats = rules::check_violations(set, parsed.windows);
  std::cout << "rows: " << stats.windows << " (+" << parsed.malformed
            << " malformed)\nrules: " << stats.rules
            << "\nviolating rows: " << stats.violating_windows << " ("
            << util::format_double(stats.window_rate() * 100.0, 2)
            << "%)\n(row,rule) violations: " << stats.rule_violations << " ("
            << util::format_double(stats.pair_rate() * 100.0, 4) << "%)\n";
  return stats.violating_windows == 0 ? 0 : 1;
}

// Static rule-set analysis (DESIGN.md §10). Exit-code contract: 0 = no
// errors (warnings/notes allowed), 1 = at least one error finding (e.g. the
// set is unsatisfiable — the conflict subset is named), 2 = usage/IO/parse
// failure. `--json` swaps the text report for the machine-readable one.
int cmd_lint(const Args& args) {
  const telemetry::Limits limits;
  const auto layout = args.has("coarse")
                          ? telemetry::coarse_row_layout(limits)
                          : telemetry::telemetry_row_layout(limits);
  const auto set = load_rules(args.get("rules", "rules.txt"), layout);

  lint::Config cfg;
  cfg.check_max_nodes = args.get_int("max-nodes", cfg.check_max_nodes);
  cfg.deadline_ms = args.get_int("deadline-ms", cfg.deadline_ms);
  if (args.has("no-dead-rules")) cfg.check_dead_rules = false;
  cfg.max_implying_subsets = static_cast<int>(
      args.get_int("max-implying-subsets", cfg.max_implying_subsets));

  const auto report = lint::analyze(set, layout, cfg);
  if (args.has("json"))
    std::cout << lint::to_json(report) << "\n";
  else
    std::cout << lint::to_text(report);
  std::cerr << "lint: " << set.size() << " rules, " << report.errors()
            << " errors, " << report.warnings() << " warnings ("
            << report.solver_checks << " solver checks)\n";
  return report.ok() ? 0 : 1;
}

// Compile a static decode plan (DESIGN.md §11) and emit it as a human
// summary or a JSON artifact for later `--plan FILE` loading. Exit-code
// contract mirrors lint: 0 = the plan is active (partition verified, rule
// set satisfiable), 1 = compiled but inactive (the decoder would fall back
// to unsliced queries — e.g. the set is unsatisfiable or verification ran
// out of budget), 2 = usage/IO/parse failure.
int cmd_plan(const Args& args) {
  const telemetry::Limits limits;
  const auto layout = args.has("coarse")
                          ? telemetry::coarse_row_layout(limits)
                          : telemetry::telemetry_row_layout(limits);
  const auto set = load_rules(args.get("rules", "rules.txt"), layout);

  plan::Config cfg;
  cfg.check_max_nodes = args.get_int("max-nodes", cfg.check_max_nodes);
  cfg.deadline_ms = args.get_int("deadline-ms", cfg.deadline_ms);
  cfg.max_prefixes_per_field = static_cast<int>(
      args.get_int("max-prefixes", cfg.max_prefixes_per_field));
  if (args.has("no-tables")) cfg.build_tables = false;

  // Overwrite guard: an existing artifact compiled from a *different* rule
  // set/layout is someone's working state — refuse to clobber it unless
  // --force. Checked before the (expensive) compile via the fingerprint
  // alone; same-fingerprint recompiles overwrite freely.
  const std::string out = args.get("out", "");
  if (!out.empty() && !args.has("force")) {
    std::ifstream existing(out, std::ios::binary);
    if (existing) {
      std::ostringstream os;
      os << existing.rdbuf();
      const std::uint64_t ours = plan::rule_set_fingerprint(set, layout);
      bool same = false;
      try {
        same = plan::from_json(os.str()).fingerprint == ours;
      } catch (const std::exception&) {
        // Unparseable: not a plan we wrote, or a corrupt one. Either way,
        // treat it as foreign.
      }
      if (!same) {
        std::cerr << "error: " << out
                  << " exists and holds a different plan (fingerprint "
                     "mismatch or unparseable); pass --force to overwrite\n";
        return 2;
      }
    }
  }

  const auto plan = plan::compile(set, layout, cfg);
  if (args.has("json") || !out.empty()) {
    const std::string json = plan::to_json(plan);
    if (out.empty())
      std::cout << json << "\n";
    else
      write_file(out, json);
  }
  if (!args.has("json") || !out.empty())
    std::cout << plan::to_text(plan, set, layout);
  std::cerr << "plan: " << set.size() << " rules, " << plan.clusters.size()
            << " clusters, " << (plan.active() ? "active" : "inactive") << " ("
            << plan.solver_checks << " solver checks)"
            << (out.empty() ? "" : "; wrote " + out) << "\n";
  return plan.active() ? 0 : 1;
}

// Independent plan-certificate verification (DESIGN.md §14): re-prove every
// claim in a serialized decode plan against the rule set it says it was
// compiled from, sharing no verification code with `plan::compile`. Exit-code
// contract mirrors lint: 0 = certified (no error findings; warnings allowed),
// 1 = rejected (at least one error finding — the artifact must not be
// trusted), 2 = usage/IO/parse failure.
int cmd_plan_verify(const Args& args) {
  const telemetry::Limits limits;
  const auto layout = args.has("coarse")
                          ? telemetry::coarse_row_layout(limits)
                          : telemetry::telemetry_row_layout(limits);
  const auto set = load_rules(args.get("rules", "rules.txt"), layout);
  const auto plan = plan::from_json(read_file(args.get("plan", "plan.json")));

  plan::verify::Config cfg;
  cfg.check_max_nodes = args.get_int("max-nodes", cfg.check_max_nodes);
  cfg.deadline_ms = args.get_int("deadline-ms", cfg.deadline_ms);
  cfg.max_prefixes_per_field = static_cast<int>(
      args.get_int("max-prefixes", cfg.max_prefixes_per_field));
  cfg.sample_field_stride = static_cast<int>(
      args.get_int("sample-fields", cfg.sample_field_stride));
  cfg.max_rows_per_field =
      static_cast<int>(args.get_int("sample-rows", cfg.max_rows_per_field));
  if (args.has("no-tables")) cfg.check_tables = false;
  cfg.backend =
      smt::backend_config_from_spec(args.get("smt-backend", "minismt"),
                                    g_argv0);

  const auto cert = plan::verify::run(plan, set, layout, cfg);
  if (args.has("json"))
    std::cout << plan::verify::to_json(cert) << "\n";
  else
    std::cout << plan::verify::to_text(cert);
  std::cerr << "plan-verify: " << set.size() << " rules, "
            << cert.clusters_checked << " clusters, " << cert.errors()
            << " errors, " << cert.warnings() << " warnings ("
            << cert.solver_checks << " re-proof checks via "
            << cert.backend_name << ")\n";
  return cert.ok() ? 0 : 1;
}

// Differential verdict testing between the in-process minismt backend and
// an external SMT-LIB2 subprocess backend (DESIGN.md §12). Exit-code
// contract: 0 = every compared verdict agreed, 1 = at least one
// disagreement (the first repro goes to stdout), 2 = usage failure,
// 77 = no external solver available (the conventional "skip" exit, so test
// drivers can mark the run skipped rather than failed).
int cmd_smt_diff(const Args& args) {
  smt::diff::Config cfg;
  cfg.queries = args.get_int("queries", 1000);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  const std::string spec = args.get("backend", "auto");
  smt::BackendConfig cand_cfg;
  if (spec == "auto") {
    const std::string path = smt::find_external_solver(g_argv0);
    if (path.empty()) {
      std::cerr << "smt-diff: no external solver found ($LEJIT_SMT_SOLVER, "
                   "z3/cvc5 on PATH, $LEJIT_SMTSERVE, or a sibling "
                   "lejit_smtserve); skipping\n";
      return 77;
    }
    cand_cfg = smt::backend_config_from_spec(path, g_argv0);
  } else if (spec == "self") {
    // The bundled reference server next to this binary — deterministic in
    // CI, where z3 may or may not be installed.
    const std::size_t slash = g_argv0.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "" : g_argv0.substr(0, slash + 1);
    const std::string path = dir + "lejit_smtserve";
    if (::access(path.c_str(), X_OK) != 0) {
      std::cerr << "smt-diff: " << path << " is not executable; skipping\n";
      return 77;
    }
    cand_cfg = smt::backend_config_from_spec(path, g_argv0);
  } else {
    cand_cfg = smt::backend_config_from_spec(spec, g_argv0);
    if (cand_cfg.kind != smt::BackendKind::kSubprocess) {
      std::cerr << "error: --backend must name an external solver "
                   "(auto|self|subprocess:<path>|<path>)\n";
      return 2;
    }
  }
  // Compare the subprocess's own verdicts, not the failover's.
  cand_cfg.degrade_to_minismt = false;

  const smt::SolverConfig ref_solver;  // stock in-process configuration
  const auto report = smt::diff::run(
      [&] { return std::make_unique<smt::MinismtBackend>(ref_solver); },
      [&] { return smt::make_backend(cand_cfg); }, cfg);
  std::cout << smt::diff::to_text(report);
  std::cerr << "smt-diff: candidate " << cand_cfg.solver_path << " vs minismt"
            << (report.ok() ? ": agreement" : ": MISMATCH") << "\n";
  return report.ok() ? 0 : 1;
}

// Differential soundness testing of the abstract interpreter (DESIGN.md
// §16.4): fuzzed rule sessions, pins, and completion/value/interval queries;
// every abstract refutation must be confirmed unsat by a real backend. The
// harness's own teeth are gated by --inject-unsound --expect-mismatch (a
// deliberately broken transfer function MUST be caught). Exit-code contract:
// 0 = pass (no mismatch, or mismatch when --expect-mismatch), 1 = soundness
// mismatch / vacuous run / expected mismatch not found, 2 = usage failure,
// 77 = --backend auto found no external solver (conventional skip).
int cmd_absint_diff(const Args& args) {
  absint::diff::Config cfg;
  cfg.queries = static_cast<int>(args.get_int("queries", 1000));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.domain.test_unsound_tighten = args.has("inject-unsound");
  const bool expect_mismatch = args.has("expect-mismatch");

  const std::string spec = args.get("backend", "minismt");
  absint::diff::BackendFactory factory;
  std::string backend_name = spec;
  if (spec == "minismt") {
    factory = [] { return std::make_unique<smt::MinismtBackend>(); };
  } else {
    smt::BackendConfig bc;
    if (spec == "auto") {
      const std::string path = smt::find_external_solver(g_argv0);
      if (path.empty()) {
        std::cerr << "absint-diff: no external solver found "
                     "($LEJIT_SMT_SOLVER, z3/cvc5 on PATH, $LEJIT_SMTSERVE, "
                     "or a sibling lejit_smtserve); skipping\n";
        return 77;
      }
      bc = smt::backend_config_from_spec(path, g_argv0);
    } else if (spec == "self") {
      const std::size_t slash = g_argv0.rfind('/');
      const std::string dir =
          slash == std::string::npos ? "" : g_argv0.substr(0, slash + 1);
      const std::string path = dir + "lejit_smtserve";
      if (::access(path.c_str(), X_OK) != 0) {
        std::cerr << "absint-diff: " << path << " is not executable; "
                     "skipping\n";
        return 77;
      }
      bc = smt::backend_config_from_spec(path, g_argv0);
    } else {
      bc = smt::backend_config_from_spec(spec, g_argv0);
      if (bc.kind != smt::BackendKind::kSubprocess) {
        std::cerr << "error: --backend must be minismt, auto, self, "
                     "subprocess:<path>, or a solver path\n";
        return 2;
      }
    }
    // The abstraction is measured against the external solver's own
    // verdicts, not the failover's.
    bc.degrade_to_minismt = false;
    backend_name = bc.solver_path;
    factory = [bc] { return smt::make_backend(bc); };
  }

  const absint::diff::Report report = absint::diff::run(cfg, factory);
  std::cout << absint::diff::to_text(report);
  if (expect_mismatch) {
    const bool caught = report.mismatches > 0;
    std::cerr << "absint-diff: expected-mismatch mode vs " << backend_name
              << (caught ? ": unsoundness caught as required"
                         : ": FAILED to catch the seeded unsoundness")
              << "\n";
    return caught ? 0 : 1;
  }
  std::cerr << "absint-diff: abstraction vs " << backend_name
            << (report.ok() ? ": sound"
                            : (report.mismatches > 0 ? ": UNSOUND"
                                                     : ": VACUOUS"))
            << "\n";
  return report.ok() ? 0 : 1;
}

void usage() {
  std::cerr <<
      "usage: lejit_cli <command> [--flag value ...]\n"
      "  generate --racks N --windows M --seed S [--coarse] [--out FILE]\n"
      "  mine     --corpus FILE [--coarse-only] [--slack-pct P] [--out FILE]\n"
      "  train    --corpus FILE [--steps N] [--dmodel D] [--out FILE]\n"
      "  synth    --model FILE --rules FILE [--count N] [--seed S]\n"
      "  impute   --model FILE --rules FILE --prompts FILE [--seed S]\n"
      "  serve-bench --model FILE --rules FILE [--count N | --prompts FILE]\n"
      "           [--workers W] [--batch B] [--seed S] [--verify]\n"
      "           decode rows through the batched serving runtime (W worker\n"
      "           groups x B pooled sessions, cross-row batched LM forwards)\n"
      "           and report throughput. --verify re-decodes sequentially\n"
      "           and exits 1 unless serve output is bit-identical\n"
      "  check    --rules FILE --rows FILE\n"
      "  lint     --rules FILE [--coarse] [--json] [--no-dead-rules]\n"
      "           static rule-set analysis: unsatisfiability (with a minimal\n"
      "           conflict subset), dead/subsumed rules, unbounded fields,\n"
      "           overflow hazards, digit-width slack. exit 0 = no errors,\n"
      "           1 = errors found, 2 = usage/IO/parse failure\n"
      "  plan     --rules FILE [--coarse] [--json] [--out FILE] [--force]\n"
      "           [--max-nodes N] [--deadline-ms MS] [--max-prefixes N]\n"
      "           [--no-tables]\n"
      "           compile a static decode plan: rule clusters for sliced\n"
      "           solver queries + solver-verified digit-mask tables, bound\n"
      "           to the rule set by fingerprint. refuses to overwrite an\n"
      "           --out artifact with a different fingerprint unless --force.\n"
      "           exit 0 = active plan, 1 = inactive (decoder would fall\n"
      "           back), 2 = usage/IO\n"
      "  plan-verify --plan FILE --rules FILE [--coarse] [--json]\n"
      "           [--smt-backend SPEC] [--max-nodes N] [--deadline-ms MS]\n"
      "           [--max-prefixes N] [--sample-fields K] [--sample-rows R]\n"
      "           [--no-tables]\n"
      "           translation validation: independently re-prove every claim\n"
      "           in a compiled plan artifact (fingerprint binding, cluster\n"
      "           partition, SAT verdicts, digit-mask table rows) without\n"
      "           sharing code with the compiler. --sample-fields K checks\n"
      "           every K-th field's table; --sample-rows R caps re-derived\n"
      "           rows per field (0 = all). exit 0 = certified, 1 = rejected,\n"
      "           2 = usage/IO/parse failure\n"
      "  smt-diff [--queries N] [--seed S] [--backend SPEC]\n"
      "           differential verdict testing: replay randomized rule\n"
      "           sessions through minismt and an external SMT-LIB2 solver,\n"
      "           fail on any sat/unsat disagreement. SPEC: auto (default;\n"
      "           exit 77 when no solver is found), self (the bundled\n"
      "           lejit_smtserve), subprocess:<path>, or a solver path.\n"
      "           exit 0 = agreement, 1 = mismatch, 77 = skipped\n"
      "  absint-diff [--queries N] [--seed S] [--backend SPEC]\n"
      "           [--inject-unsound] [--expect-mismatch]\n"
      "           differential soundness testing of the abstract\n"
      "           interpreter: every abstract refutation over fuzzed rule\n"
      "           sessions must be confirmed unsat by a real backend. SPEC:\n"
      "           minismt (default, in-process), auto (external solver; exit\n"
      "           77 when none is found), self (the bundled lejit_smtserve),\n"
      "           subprocess:<path>, or a solver path. --inject-unsound\n"
      "           breaks a transfer function on purpose; with\n"
      "           --expect-mismatch the run fails unless the harness catches\n"
      "           it. exit 0 = pass, 1 = unsound/vacuous, 77 = skipped\n"
      "resilience (synth, impute):\n"
      "  --on-unknown POLICY  inconclusive solver checks read as:\n"
      "                       infeasible|feasible|escalate (default escalate)\n"
      "  --max-nodes N        solver search-node cap per check (default 500000)\n"
      "  --solver-deadline-ms MS  wall-clock deadline per solver check\n"
      "  --row-deadline-ms MS     wall-clock ceiling per generated row\n"
      "  --retry-budget N     dead-end recoveries per row (default 0 = fail-stop)\n"
      "  --no-solver-cache    disable incremental solver reuse + feasibility\n"
      "                       caching (decodes are bit-identical either way;\n"
      "                       this exists for perf A/B runs and debugging)\n"
      "  --no-absint          disable the abstract-interpretation prefilter\n"
      "                       in front of the solver/cache (bit-identical\n"
      "                       either way; for perf A/B runs and debugging)\n"
      "  --lint               lint the rule set at load time and refuse to\n"
      "                       decode if it has errors (lint_on_load); clean\n"
      "                       sets seed the feasibility cache's static hulls\n"
      "  --plan FILE          load a compiled decode plan (from `plan --json`);\n"
      "                       a stale fingerprint exits 1. decodes stay\n"
      "                       bit-identical with or without a plan\n"
      "  --verify-plan        with --plan: independently re-verify the loaded\n"
      "                       artifact (as `plan-verify`) and exit 1 if it is\n"
      "                       rejected; decode output is unchanged either way\n"
      "  --plan-compile       compile a decode plan in-process before decoding\n"
      "  --smt-backend SPEC   solver substrate: minismt (default, in-process),\n"
      "                       auto (external solver when one is found),\n"
      "                       subprocess:<path> or a solver path. External\n"
      "                       backends degrade to minismt on crash/hang/\n"
      "                       garble (see smt.backend.* metrics)\n"
      "observability (any command):\n"
      "  --log-level LEVEL    stderr diagnostics: error|warn|info|debug|off\n"
      "                       (default off; LEJIT_LOG env is the fallback)\n"
      "  --metrics-out FILE   write a JSON metrics snapshot on exit\n"
      "  --trace-out FILE     write a chrome://tracing phase trace on exit\n";
}

// Applies --log-level/--metrics-out/--trace-out before the command runs and
// exports the requested files after it finishes (also on error exits, so a
// failed run still leaves its telemetry behind).
class ObsSession {
 public:
  explicit ObsSession(const Args& args)
      : metrics_out_(args.get("metrics-out", "")),
        trace_out_(args.get("trace-out", "")) {
    if (args.has("log-level")) {
      obs::LogLevel level;
      if (!obs::Logger::parse_level(args.get("log-level", ""), &level)) {
        std::cerr << "error: --log-level expects error|warn|info|debug|off\n";
        std::exit(2);
      }
      obs::Logger::set_level(level);
    }
    if (!metrics_out_.empty() || !trace_out_.empty())
      obs::set_metrics_enabled(true);
    if (!trace_out_.empty()) obs::Tracer::instance().start_capture();
  }

  ~ObsSession() {
    try {
      if (!metrics_out_.empty()) {
        write_file(metrics_out_, obs::MetricsRegistry::instance().to_json());
        std::cerr << "wrote metrics to " << metrics_out_ << "\n";
      }
      if (!trace_out_.empty()) {
        obs::Tracer::instance().stop_capture();
        obs::Tracer::instance().write_trace(trace_out_);
        std::cerr << "wrote trace (" << obs::Tracer::instance().num_events()
                  << " events) to " << trace_out_ << "\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "error exporting telemetry: " << e.what() << "\n";
    }
  }

 private:
  std::string metrics_out_;
  std::string trace_out_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  g_argv0 = argv[0];
  const Args args(argc, argv);
  const ObsSession obs_session(args);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "mine") return cmd_mine(args);
    if (command == "train") return cmd_train(args);
    if (command == "synth") return cmd_synth(args);
    if (command == "impute") return cmd_impute(args);
    if (command == "serve-bench") return cmd_serve_bench(args);
    if (command == "check") return cmd_check(args);
    if (command == "lint") return cmd_lint(args);
    if (command == "plan") return cmd_plan(args);
    if (command == "plan-verify") return cmd_plan_verify(args);
    if (command == "smt-diff") return cmd_smt_diff(args);
    if (command == "absint-diff") return cmd_absint_diff(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  usage();
  return 2;
}
