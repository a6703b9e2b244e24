// Held-out inputs, set-up, the LM proxy, span export and small helpers.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/timer.hpp"
#include "rules/miner.hpp"
#include "util/error.hpp"

namespace lejit::perfbench {

namespace {

// Held-out racks per workload seed: enough distinct prompts that a run never
// reuses one, with room for a much faster decoder.
constexpr int kHeldoutRacks = 200;
constexpr int kHeldoutWindowsPerRack = 80;

}  // namespace

std::vector<telemetry::Window> heldout_windows(const Inputs& inputs,
                                               std::uint64_t seed) {
  // Mixed so that no workload seed regenerates the training fleet.
  const std::uint64_t fleet_seed = (seed ^ 0x9e3779b97f4a7c15ULL) * 3 + 1;
  const telemetry::Dataset fleet =
      telemetry::generate_dataset(telemetry::GeneratorConfig{
          .limits = inputs.limits,
          .num_racks = kHeldoutRacks,
          .windows_per_rack = kHeldoutWindowsPerRack,
          .seed = fleet_seed == kEnvSeed ? fleet_seed + 1 : fleet_seed});
  std::vector<telemetry::Window> windows = telemetry::all_windows(fleet);
  util::Rng rng(seed, 0x5eed);
  for (std::size_t i = windows.size(); i > 1; --i) {
    const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i) - 1);
    std::swap(windows[i - 1], windows[static_cast<std::size_t>(j)]);
  }
  return windows;
}

Stack build_stack(const Inputs& inputs, const std::string& model_path) {
  Stack stack;
  obs::Timer timer;
  stack.model =
      std::make_unique<lm::Transformer>(lm::Transformer::load(model_path));
  LEJIT_REQUIRE(stack.model->vocab_size() == inputs.tokenizer.vocab_size(),
                "perfbench: checkpoint vocabulary does not match the rows");
  stack.load_ms = timer.elapsed_ms();

  timer.reset();
  stack.rules =
      rules::mine_rules(inputs.train, inputs.layout, inputs.limits).rules;
  stack.mine_ms = timer.elapsed_ms();

  timer.reset();
  stack.lm = std::make_unique<LmProxy>(*stack.model);
  stack.decoder = std::make_unique<core::GuidedDecoder>(
      *stack.lm, inputs.tokenizer, inputs.layout, stack.rules,
      core::DecoderConfig{});
  stack.ctor_ms = timer.elapsed_ms();
  return stack;
}

std::vector<float> LmProxy::logits(std::span<const int> context) const {
  if (log_ == nullptr) return session_.logits(context);
  const std::vector<int> before = session_.cache().ids;
  Span span{.kind = SpanKind::kLm,
            .tid = log_->tid,
            .id = log_->next_id++,
            .parent = row_span_,
            .start_ns = obs::now_ns()};
  std::vector<float> out = session_.logits(context);
  span.end_ns = obs::now_ns();
  // The forward recomputes every position past the cached common prefix,
  // and always at least the last one (lm::Transformer's KvCache rule).
  const std::vector<int>& after = session_.cache().ids;
  std::size_t common = 0;
  while (common < before.size() && common < after.size() &&
         before[common] == after[common])
    ++common;
  if (common == after.size() && common > 0) --common;
  span.tokens = static_cast<std::int64_t>(after.size() - common);
  log_->spans.push_back(span);
  return out;
}

void write_trace(const std::string& path, std::span<const SpanLog> logs) {
  static constexpr const char* kNames[] = {"generate", "lm.logits",
                                           "serve.run"};
  obs::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  std::int64_t origin = INT64_MAX;
  for (const auto& log : logs)
    for (const auto& s : log.spans) origin = std::min(origin, s.start_ns);
  for (const auto& log : logs) {
    for (const auto& s : log.spans) {
      w.begin_object();
      w.key("name").value(kNames[static_cast<int>(s.kind)]);
      w.key("ph").value("X");
      w.key("pid").value(1);
      w.key("tid").value(static_cast<std::int64_t>(s.tid));
      w.key("ts").value(static_cast<double>(s.start_ns - origin) * 1e-3);
      w.key("dur").value(static_cast<double>(s.dur_ns()) * 1e-3);
      w.key("args").begin_object();
      w.key("id").value(s.id);
      w.key("parent").value(s.parent);
      if (s.kind == SpanKind::kLm) w.key("tokens").value(s.tokens);
      if (s.kind == SpanKind::kRequest)
        w.key("late_us").value(static_cast<double>(s.late_ns) * 1e-3);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::binary);
  out << w.str() << "\n";
  LEJIT_REQUIRE(static_cast<bool>(out), "perfbench: cannot write " + path);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double t = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * t;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double host_speed() {
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 1, iterations = 0;
  const obs::Timer timer;
  while (timer.elapsed_ns() < 100'000'000) {
    for (int i = 0; i < 10'000; ++i) {  // xorshift64: a serial dependency chain
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    iterations += 10'000;
  }
  sink = x;
  (void)sink;
  const double us = static_cast<double>(timer.elapsed_ns()) * 1e-3;
  return static_cast<double>(iterations) / us;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace lejit::perfbench
