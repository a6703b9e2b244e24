// The repo benchmark: shared declarations of the benchmark binary.
//
// perfbench/run.py builds this binary, trains (or reuses) the nano-GPT
// checkpoint, and runs one workload per call. Every layer is reached only
// through the program's public headers; spans are recorded here, around the
// calls into those layers, never inside src/.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/decoder.hpp"
#include "lm/tokenizer.hpp"
#include "lm/transformer.hpp"
#include "rules/rule.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/text.hpp"

namespace lejit::perfbench {

// --- inputs ------------------------------------------------------------------

// bench::make_env's default seed: the training fleet's, and the weights'.
inline constexpr std::uint64_t kEnvSeed = 20250705;

// The training fleet, split by rack exactly as bench::make_env does with its
// defaults. It is fixed: the workload seed picks the held-out prompts and the
// row RNGs, so every run of every seed decodes against the same rule set and
// the same trained weights.
struct Inputs {
  telemetry::Limits limits;
  telemetry::RowLayout layout;
  std::vector<telemetry::Window> train;
  lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
};
Inputs make_inputs();

// Train the nano-GPT on the training rows (bench::make_env's recipe) and
// save it to `path`. (train.cpp)
void train_checkpoint(const Inputs& inputs, const std::string& path);

// Windows of racks no training rack shares, generated from the workload
// seed, in seeded order. Prompts come from these.
std::vector<telemetry::Window> heldout_windows(const Inputs& inputs,
                                               std::uint64_t seed);

// --- tracing -----------------------------------------------------------------

enum class SpanKind : std::uint8_t { kRow, kLm, kRequest };

// One timed call into a layer. `parent` is the id of the span that caused
// it (0 for a root); spans of one row or request share `parent`/`id`.
struct Span {
  SpanKind kind = SpanKind::kRow;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t tokens = 0;  // kLm: positions the forward computed
  std::int64_t late_ns = 0;  // kRequest: its client's gap since the last reply

  std::int64_t dur_ns() const { return end_ns - start_ns; }
};

// Spans kept in memory; one log per recording thread.
struct SpanLog {
  std::uint32_t tid = 0;
  std::vector<Span> spans{};
  std::uint64_t next_id = 1;
};

// Chrome-trace JSON of every span in `logs`, written to `path`.
void write_trace(const std::string& path, std::span<const SpanLog> logs);

// The benchmark's LanguageModel proxy around a TransformerSession. With no
// log attached it only forwards; with one, each forward becomes a kLm span
// under the current row, tagged with how many positions it computed.
class LmProxy final : public lm::LanguageModel {
 public:
  explicit LmProxy(const lm::Transformer& model) : session_(model) {}

  int vocab_size() const override { return session_.vocab_size(); }
  std::vector<float> logits(std::span<const int> context) const override;

  void attach(SpanLog* log, std::uint64_t row_span) {
    log_ = log;
    row_span_ = row_span;
  }

 private:
  mutable lm::TransformerSession session_;
  SpanLog* log_ = nullptr;
  std::uint64_t row_span_ = 0;
};

// --- the program under test --------------------------------------------------

// What set-up builds from generated inputs and a trained checkpoint.
struct Stack {
  std::unique_ptr<lm::Transformer> model;
  rules::RuleSet rules;
  std::unique_ptr<LmProxy> lm;
  std::unique_ptr<core::GuidedDecoder> decoder;

  // Set-up phases of this build, in ms.
  double load_ms = 0.0;
  double mine_ms = 0.0;
  double ctor_ms = 0.0;
};
Stack build_stack(const Inputs& inputs, const std::string& model_path);

// --- workloads ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string model_path;
  std::string trace_out;  // chrome-trace file (traced runs only)
};

// Runs one workload and prints its result lines; returns the exit code.
int run_workload(const Options& options);

// Times single calls into each layer against the set-up `stack` (obs off):
// LM forwards, a solver probe, absint refinement and analysis, plan
// compilation, and server construction.
void measure_layer_calls(const Inputs& inputs, const Stack& stack,
                         std::span<const std::string> prompts,
                         std::span<const telemetry::Window> windows,
                         std::vector<Metric>& out);

// --- helpers -----------------------------------------------------------------

double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double process_cpu_seconds();
double peak_rss_mb();
// Iterations per microsecond of a fixed integer loop run for ~100 ms: the
// host's speed when the run started and ended, for telling a slow host from
// a slow program when reading a report.
double host_speed();

}  // namespace lejit::perfbench
