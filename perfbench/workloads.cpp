// The two workloads, their output checks, and their metrics.
//
//   impute  one GuidedDecoder, closed loop, one caller, held-out coarse-prefix
//           prompts (none repeats within a run)
//   synth   the same decoder, empty prompt, row i from row_rng(seed, i, 0)
//
// A run times `seconds` of work after set-up and a short warm-up. With
// tracing on, alternate slices of the run are traced, and the per-layer
// metrics come from those slices; the untraced slices give the tracing
// overhead.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <optional>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "core/batch.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "rules/checker.hpp"
#include "serve/serve.hpp"

namespace lejit::perfbench {

namespace {

constexpr int kSetupReps = 25;
constexpr std::size_t kWarmupRows = 16;
// removed_mass and the head digest cover this many leading rows, so that
// they depend on the seed and the decoded text only, not on how many rows a
// run reached.
constexpr std::size_t kLeadRows = 2000;
constexpr std::size_t kServeRows = 256;
constexpr std::size_t kReplayRows = 64;
// Latency percentiles are medians over up to kLatencyGroups consecutive
// groups of timed rows, each of at least kMinGroupRows rows so that its p99
// has ten samples beyond it: one slow stretch of a noisy host then moves one
// group's tail, not the run's.
constexpr std::size_t kLatencyGroups = 5;
constexpr std::size_t kMinGroupRows = 1000;

enum class Kind { kImpute, kSynth };

// One decoded row, in workload order.
struct Decoded {
  std::string prompt;
  core::DecodeResult result{};
  bool refused = false;  // Server::run threw
  bool timed = false;    // inside the measured window
  double latency_ms = 0.0;
};

// The output checks every row passes: decoded, not degraded, the prompt
// kept, and no mined rule violated.
bool row_correct(const Decoded& d, const rules::RuleSet& rules) {
  const core::DecodeResult& r = d.result;
  if (d.refused || !r.ok || r.reason != core::FailReason::kNone || !r.window)
    return false;
  if (!r.text.starts_with(d.prompt)) return false;
  return rules::violated_rules(rules, *r.window).empty();
}

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// A contiguous part of the measured window.
struct Slice {
  std::size_t rows = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool traced = false;
};

double slice_rate(const Slice& s) {
  return s.wall_s > 0.0 ? static_cast<double>(s.rows) / s.wall_s : 0.0;
}

// Rows/s over the traced slices against the untraced ones, as the share of
// throughput tracing costs.
double trace_overhead(std::span<const Slice> slices) {
  Slice on, off;
  for (const Slice& s : slices) {
    Slice& acc = s.traced ? on : off;
    acc.rows += s.rows;
    acc.wall_s += s.wall_s;
  }
  const double base = slice_rate(off);
  return base > 0.0 ? 1.0 - slice_rate(on) / base : 0.0;
}

// What a traced stretch of sequential decoding leaves behind.
struct DecoderTrace {
  SpanLog log{.tid = 1};
  std::vector<core::DecodeStats> stats;  // per traced row
  std::int64_t wall_ns = 0;
  double cpu_s = 0.0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

// Per-layer metrics of sequential decoding through the LmProxy, with the
// program's own phase totals and check-latency histogram (obs was on).
void decoder_layer_metrics(const DecoderTrace& t, std::vector<Metric>& out) {
  const auto rows =
      static_cast<double>(std::max<std::size_t>(t.stats.size(), 1));
  const auto wall = static_cast<double>(std::max<std::int64_t>(t.wall_ns, 1));
  const auto frac = [&](std::int64_t ns) {
    return static_cast<double>(ns) / wall;
  };
  const auto per_row = [&](std::int64_t n) {
    return static_cast<double>(n) / rows;
  };
  std::int64_t forwards = 0, prefills = 0, prefill_tokens = 0;
  std::int64_t lm_ns = 0, prefill_ns = 0;
  for (const Span& s : t.log.spans) {
    if (s.kind != SpanKind::kLm) continue;
    ++forwards;
    lm_ns += s.dur_ns();
    if (s.tokens > 1) {
      ++prefills;
      prefill_tokens += s.tokens;
      prefill_ns += s.dur_ns();
    }
  }
  core::DecodeStats sum;
  for (const core::DecodeStats& s : t.stats) {
    sum.masked_steps += s.masked_steps;
    sum.solver_checks += s.solver_checks;
    sum.absint_checks += s.absint_checks;
    sum.absint_hits += s.absint_hits;
  }
  const obs::Tracer& tracer = obs::Tracer::instance();
  const auto mask_ns = tracer.totals(obs::Phase::kMaskBuild).total_ns;
  const auto sampling_ns = tracer.totals(obs::Phase::kSampling).total_ns;
  const obs::Histogram& checks =
      obs::MetricsRegistry::instance().histogram("smt.check_latency_us");
  const auto ratio = [](std::int64_t a, std::int64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };

  out.push_back({"lm.forwards_per_row", per_row(forwards), "count/row"});
  out.push_back({"lm.prefill_frac", frac(prefill_ns), "fraction"});
  out.push_back({"lm.step_frac", frac(lm_ns - prefill_ns), "fraction"});
  out.push_back({"lm.prefill_tokens_per_call", ratio(prefill_tokens, prefills),
                 "count"});
  out.push_back({"core.unattributed_frac",
                 1.0 - frac(lm_ns + mask_ns + sampling_ns), "fraction"});
  out.push_back({"core.mask_build_frac", frac(mask_ns), "fraction"});
  out.push_back({"core.cache_hit_frac",
                 ratio(t.cache_hits, t.cache_hits + t.cache_misses),
                 "fraction"});
  out.push_back({"core.masked_steps_per_row", per_row(sum.masked_steps),
                 "count/row"});
  out.push_back({"smt.checks_per_row", per_row(sum.solver_checks),
                 "count/row"});
  out.push_back({"smt.check_p50_us", checks.percentile(0.50), "us"});
  out.push_back({"smt.check_p99_us", checks.percentile(0.99), "us"});
  out.push_back({"absint.hit_frac", ratio(sum.absint_hits, sum.absint_checks),
                 "fraction"});
}

// Switches the program's obs layer on for the lifetime of the scope.
class ObsScope {
 public:
  ObsScope() { obs::set_metrics_enabled(true); }
  ~ObsScope() { obs::set_metrics_enabled(false); }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;
};

void reset_program_obs() {
  obs::MetricsRegistry::instance().reset();
  obs::Tracer::instance().reset();
}

// Decodes one row through `decoder`, recording a root span (and the proxy's
// child spans) when `trace` is given.
core::DecodeResult decode_row(core::GuidedDecoder& decoder, LmProxy& lm,
                              util::Rng rng, std::string_view prompt,
                              DecoderTrace* trace) {
  if (trace == nullptr) return decoder.generate(rng, prompt);
  Span span{.kind = SpanKind::kRow,
            .tid = trace->log.tid,
            .id = trace->log.next_id++,
            .start_ns = obs::now_ns()};
  lm.attach(&trace->log, span.id);
  core::DecodeResult result = decoder.generate(rng, prompt);
  span.end_ns = obs::now_ns();
  lm.attach(nullptr, 0);
  trace->log.spans.push_back(span);
  trace->stats.push_back(result.stats);
  return result;
}

// --- offline: one caller, closed loop ----------------------------------------

struct RunData {
  std::vector<Decoded> rows;  // every row decoded, warm-up included
  std::vector<Slice> slices;
  std::vector<double> late_ms;  // caller gaps before traced rows
  std::vector<SpanLog> logs;
  std::size_t replay_checked = 0;
  std::size_t replay_mismatches = 0;
  bool prompts_exhausted = false;
  std::vector<Metric> layer;  // per-layer metrics (traced runs)
};

void run_offline(Kind kind, const Options& opt, Stack& stack,
                 std::span<const std::string> prompts, RunData& data) {
  core::GuidedDecoder& decoder = *stack.decoder;
  LmProxy& lm = *stack.lm;
  std::size_t next = 0;  // row number == index into prompts for impute
  const auto has_next = [&] {
    return kind == Kind::kSynth || next < prompts.size();
  };
  const auto prompt_of = [&](std::size_t i) -> std::string {
    return kind == Kind::kSynth ? std::string() : prompts[i];
  };

  for (; next < kWarmupRows && has_next(); ++next) {
    Decoded d{.prompt = prompt_of(next)};
    d.result = decode_row(decoder, lm, core::row_rng(opt.seed, next, 0),
                          d.prompt, nullptr);
    data.rows.push_back(std::move(d));
  }

  DecoderTrace trace;
  if (opt.trace) reset_program_obs();
  const int n_slices = opt.trace ? 10 : 20;
  const auto slice_ns =
      static_cast<std::int64_t>(opt.seconds * 1e9 / n_slices);
  for (int k = 0; k < n_slices && has_next(); ++k) {
    Slice slice{.traced = opt.trace && k % 2 == 1};
    std::optional<ObsScope> scope;
    if (slice.traced) scope.emplace();
    const auto cache0 = decoder.cache_stats();
    const double cpu0 = process_cpu_seconds();
    const std::int64_t start = obs::now_ns();
    std::int64_t prev_done = start;
    while (obs::now_ns() - start < slice_ns && has_next()) {
      Decoded d{.prompt = prompt_of(next), .timed = true};
      const std::int64_t send = obs::now_ns();
      d.result = decode_row(decoder, lm, core::row_rng(opt.seed, next, 0),
                            d.prompt, slice.traced ? &trace : nullptr);
      const std::int64_t done = obs::now_ns();
      d.latency_ms = static_cast<double>(done - send) * 1e-6;
      if (slice.traced)
        data.late_ms.push_back(static_cast<double>(send - prev_done) * 1e-6);
      prev_done = done;
      data.rows.push_back(std::move(d));
      ++slice.rows;
      ++next;
    }
    slice.wall_s = static_cast<double>(obs::now_ns() - start) * 1e-9;
    slice.cpu_s = process_cpu_seconds() - cpu0;
    if (slice.traced) {
      const auto& cache1 = decoder.cache_stats();
      trace.cache_hits += cache1.hits - cache0.hits;
      trace.cache_misses += cache1.misses - cache0.misses;
      trace.wall_ns += static_cast<std::int64_t>(slice.wall_s * 1e9);
      trace.cpu_s += slice.cpu_s;
    }
    data.slices.push_back(slice);
  }
  data.prompts_exhausted = !has_next();

  if (!opt.trace) return;
  decoder_layer_metrics(trace, data.layer);
  std::int64_t forwards = 0;
  for (const Span& s : trace.log.spans) forwards += s.kind == SpanKind::kLm;
  const double rows =
      static_cast<double>(std::max<std::size_t>(trace.stats.size(), 1));
  // Offline every forward serves one context.
  data.layer.push_back(
      {"serve.batch_width", forwards > 0 ? 1.0 : 0.0, "count"});
  data.layer.push_back({"serve.forwards_per_row",
                        static_cast<double>(forwards) / rows, "count/row"});
  data.layer.push_back(
      {"serve.cores_busy",
       trace.cpu_s / std::max(static_cast<double>(trace.wall_ns) * 1e-9, 1e-9),
       "cores"});
  data.logs.push_back(std::move(trace.log));
}

// --- the serve check ---------------------------------------------------------

struct Outcome {
  std::uint32_t client = 0;
  std::int64_t send_ns = 0;
  std::int64_t done_ns = 0;
  std::int64_t idle_ns = 0;  // the client's gap since its previous reply
  core::DecodeResult result{};
  bool refused = false;
};

int client_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

// `clients` threads each send one single-row Server::run, wait for the
// reply, and send the next prompt, until the prompts run out. Every request
// is due from the start, so the clients keep the server full.
std::vector<Outcome> serve_closed_loop(serve::Server& server,
                                       std::span<const std::string> prompts,
                                       int clients) {
  std::vector<Outcome> out(prompts.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::int64_t last = obs::now_ns();
      for (std::size_t k; (k = next.fetch_add(1)) < prompts.size();) {
        Outcome& o = out[k];
        o.client = static_cast<std::uint32_t>(c);
        o.send_ns = obs::now_ns();
        o.idle_ns = o.send_ns - last;
        try {
          o.result = std::move(server.run(prompts.subspan(k, 1)).at(0));
        } catch (const std::exception& e) {
          o.refused = true;
          o.result.fail_detail = e.what();
        }
        o.done_ns = last = obs::now_ns();
      }
    });
  }
  threads.clear();  // joins
  return out;
}

// The serve check, run after the measured window of every run: kServeRows
// imputation requests through a serve::Server (ServeConfig{} plus the seed)
// from one closed-loop client per core, then a sample of those rows
// re-decoded sequentially with the same row_rng derivation, which must match
// bit for bit. Server::run numbers every call's rows from 0, so each
// single-row request decodes with row_rng(seed, 0, 0). Obs stays off (it
// serialises the sessions). In traced runs the leg's ServeStats and CPU time
// give the serve layer's metrics, and its requests are spans.
void serve_leg(const Options& opt, const Inputs& inputs, const Stack& stack,
               std::span<const std::string> prompts, RunData& data) {
  serve::Server server(*stack.model, inputs.tokenizer, inputs.layout,
                       stack.rules, core::DecoderConfig{},
                       serve::ServeConfig{.seed = opt.seed});
  const double cpu0 = process_cpu_seconds();
  const std::int64_t start = obs::now_ns();
  std::vector<Outcome> outs =
      serve_closed_loop(server, prompts, client_threads());
  const double wall_s = static_cast<double>(obs::now_ns() - start) * 1e-9;
  const double cpu_s = process_cpu_seconds() - cpu0;
  const serve::ServeStats stats = server.stats();

  LmProxy lm(*stack.model);
  core::GuidedDecoder decoder(lm, inputs.tokenizer, inputs.layout, stack.rules,
                              core::DecoderConfig{});
  const std::size_t stride =
      std::max<std::size_t>(1, outs.size() / kReplayRows);
  SpanLog log;  // one span per request, on its client's thread id
  for (std::size_t k = 0; k < outs.size(); ++k) {
    Outcome& o = outs[k];
    if (k % stride == 0) {
      util::Rng rng = core::row_rng(opt.seed, 0, 0);
      const core::DecodeResult r = decoder.generate(rng, prompts[k]);
      ++data.replay_checked;
      if (r.text != o.result.text || r.ok != o.result.ok)
        ++data.replay_mismatches;
    }
    log.spans.push_back(Span{.kind = SpanKind::kRequest,
                             .tid = o.client + 1,
                             .id = log.next_id++,
                             .start_ns = o.send_ns,
                             .end_ns = o.done_ns,
                             .late_ns = o.idle_ns});
    data.rows.push_back(Decoded{.prompt = prompts[k],
                                .result = std::move(o.result),
                                .refused = o.refused});
  }
  if (!opt.trace) return;
  const auto forwards = static_cast<double>(stats.batched_forwards);
  data.layer.push_back(
      {"serve.batch_width",
       static_cast<double>(stats.forwarded_contexts) / std::max(forwards, 1.0),
       "count"});
  data.layer.push_back(
      {"serve.forwards_per_row",
       forwards / std::max(static_cast<double>(stats.rows), 1.0),
       "count/row"});
  data.layer.push_back(
      {"serve.cores_busy", cpu_s / std::max(wall_s, 1e-9), "cores"});
  data.logs.push_back(std::move(log));
}

// Median over consecutive groups of `latency_ms` of each group's quantile q.
double grouped_quantile(std::span<const double> latency_ms, double q) {
  const std::size_t n = latency_ms.size();
  const std::size_t groups =
      std::clamp<std::size_t>(n / kMinGroupRows, 1, kLatencyGroups);
  std::vector<double> per_group;
  for (std::size_t g = 0; g < groups; ++g)
    per_group.push_back(quantile({latency_ms.begin() + g * n / groups,
                                  latency_ms.begin() + (g + 1) * n / groups},
                                 q));
  return median(per_group);
}

// --- reporting ---------------------------------------------------------------

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(static_cast<std::uint64_t>(attempted));
  w.key("failed").value(static_cast<std::uint64_t>(failed));
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << w.str() << std::endl;
}

}  // namespace

int run_workload(const Options& opt) {
  Kind kind;
  if (opt.workload == "impute") kind = Kind::kImpute;
  else if (opt.workload == "synth") kind = Kind::kSynth;
  else {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  obs::set_metrics_enabled(false);
  const double speed_before = host_speed();

  // Generated inputs: the fixed training fleet, and this seed's held-out
  // windows.
  const Inputs inputs = make_inputs();
  const std::vector<telemetry::Window> heldout =
      heldout_windows(inputs, opt.seed);

  // Set-up, several times; the last build is the one measured.
  Stack stack;
  std::vector<double> setup_s;
  std::vector<double> load_ms, mine_ms, ctor_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack = Stack{};  // tear down the previous build outside the timer
    const obs::Timer timer;
    stack = build_stack(inputs, opt.model_path);
    setup_s.push_back(timer.elapsed_seconds());
    load_ms.push_back(stack.load_ms);
    mine_ms.push_back(stack.mine_ms);
    ctor_ms.push_back(stack.ctor_ms);
  }

  // Prompts: held-out windows whose ground truth satisfies the mined rules
  // (so every prompt has a compliant completion), each prompt once.
  std::vector<std::string> prompts;
  std::vector<telemetry::Window> prompt_windows;
  {
    std::unordered_set<std::string> seen;
    for (const telemetry::Window& w : heldout) {
      if (!rules::violated_rules(stack.rules, w).empty()) continue;
      std::string p = telemetry::imputation_prompt(w);
      if (!seen.insert(p).second) continue;
      prompts.push_back(std::move(p));
      prompt_windows.push_back(w);
    }
  }

  RunData data;
  const std::span<const std::string> pool(prompts);
  const std::size_t serve_rows = std::min(kServeRows, pool.size() / 2);
  run_offline(kind, opt, stack, pool.first(pool.size() - serve_rows), data);
  serve_leg(opt, inputs, stack, pool.last(serve_rows), data);

  const double speed_after = host_speed();

  // Output checks and the digest of the decoded rows.
  std::size_t failed = 0, timed_rows = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL, digest_head = digest;
  double removed = 0.0;
  std::int64_t masked = 0;
  std::vector<double> latency_ms;
  for (std::size_t i = 0; i < data.rows.size(); ++i) {
    const Decoded& d = data.rows[i];
    if (!row_correct(d, stack.rules)) {
      if (failed < 5)
        std::cerr << "[perfbench] row " << i << " failed its checks: '"
                  << d.result.text << "' " << d.result.fail_detail << "\n";
      ++failed;
    }
    digest = fnv1a(fnv1a(digest, d.result.text), "\n");
    if (i < kLeadRows) digest_head = digest;
    if (i < kLeadRows) {
      removed += d.result.stats.removed_mass;
      masked += d.result.stats.masked_steps;
    }
    if (d.timed) {
      ++timed_rows;
      latency_ms.push_back(d.latency_ms);
    }
  }
  const bool correct = failed == 0 && data.replay_mismatches == 0 &&
                       timed_rows > 0;
  const double removed_mass =
      masked == 0 ? 0.0 : removed / static_cast<double>(masked);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    std::vector<double> rates, cpu_per_row;
    for (const Slice& s : data.slices) {
      if (s.rows == 0) continue;
      rates.push_back(slice_rate(s));
      if (s.cpu_s > 0.0)
        cpu_per_row.push_back(s.cpu_s * 1e3 / static_cast<double>(s.rows));
    }
    metrics = {
        {"rows_per_s", median(rates), "rows/s"},
        {"p50_ms", grouped_quantile(latency_ms, 0.50), "ms"},
        {"p99_ms", grouped_quantile(latency_ms, 0.99), "ms"},
        {"cpu_ms_per_row", median(cpu_per_row), "ms"},
        {"ok_frac",
         data.rows.empty() ? 0.0
                           : 1.0 - static_cast<double>(failed) /
                                       static_cast<double>(data.rows.size()),
         "fraction"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    metrics = std::move(data.layer);
    metrics.push_back({"core.removed_mass", removed_mass, "fraction"});
    metrics.push_back({"gen.late_p99_ms", quantile(data.late_ms, 0.99), "ms"});
    metrics.push_back(
        {"trace.overhead_frac", trace_overhead(data.slices), "fraction"});
    metrics.push_back({"rules.mine_ms", median(mine_ms), "ms"});
    metrics.push_back({"core.decoder_ctor_ms", median(ctor_ms), "ms"});
    measure_layer_calls(inputs, stack, prompts, prompt_windows, metrics);
    if (!opt.trace_out.empty()) write_trace(opt.trace_out, data.logs);
  }

  obs::JsonWriter info;
  info.begin_object();
  info.key("workload").value(opt.workload);
  info.key("seed").value(opt.seed);
  info.key("seconds").value(opt.seconds);
  info.key("host_speed_before").value(speed_before);
  info.key("host_speed_after").value(speed_after);
  info.key("trace").value(opt.trace);
  info.key("rules").value(static_cast<std::uint64_t>(stack.rules.size()));
  info.key("prompt_pool").value(static_cast<std::uint64_t>(prompts.size()));
  info.key("prompts_exhausted").value(data.prompts_exhausted);
  info.key("rows").value(static_cast<std::uint64_t>(data.rows.size()));
  info.key("latency_samples").value(static_cast<std::uint64_t>(timed_rows));
  info.key("serve_client_threads").value(client_threads());
  info.key("replay_checked")
      .value(static_cast<std::uint64_t>(data.replay_checked));
  info.key("replay_mismatches")
      .value(static_cast<std::uint64_t>(data.replay_mismatches));
  info.key("digest_first_rows").value(static_cast<std::uint64_t>(
      std::min(kLeadRows, data.rows.size())));
  info.key("digest_first").value(hex(digest_head));
  info.key("digest_all").value(hex(digest));
  info.key("removed_mass").value(removed_mass);
  info.key("slice_rows_per_s").begin_array();
  for (const Slice& sl : data.slices) info.value(slice_rate(sl));
  info.end_array();
  info.key("setup_load_ms").value(median(load_ms));
  info.key("setup_mine_ms").value(median(mine_ms));
  info.key("setup_ctor_ms").value(median(ctor_ms));
  info.end_object();
  std::cout << "{\"info\": " << info.str() << "}" << std::endl;

  print_result(correct, data.rows.size(), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace lejit::perfbench
