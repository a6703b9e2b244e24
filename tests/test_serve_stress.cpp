// Serve / shared-model concurrency stress (ctest label `stress`; the CI
// tsan job runs this binary under ThreadSanitizer via the stress-tsan
// preset).
//
// Three hazards are pinned here:
//   1. Sharing ONE Transformer instance across decoder threads races
//      its internal KV cache. The ReentrancyGuard on Transformer::logits()
//      must catch that misuse deterministically — abort with a message
//      naming the fix — instead of silently corrupting decoded text.
//   2. The serve runtime (queue + rendezvous batcher + session pool) must
//      stay data-race-free and bit-identical to sequential decode under
//      maximum contention: more runnable session threads than cores,
//      repeated run() reuse, sessions retiring at different times.
//   3. A server whose sessions cannot be built must throw from its
//      constructor without hanging or leaving a session thread behind.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/decoder.hpp"
#include "rules/miner.hpp"
#include "rules/parser.hpp"
#include "serve/serve.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/text.hpp"

namespace lejit::serve {
namespace {

struct Env {
  telemetry::Dataset dataset;
  telemetry::RowLayout layout;
  lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  std::unique_ptr<lm::Transformer> model;
  rules::RuleSet mined;
};

const Env& env() {
  static const Env e = [] {
    Env out;
    out.dataset = telemetry::generate_dataset(telemetry::GeneratorConfig{
        .num_racks = 4, .windows_per_rack = 12, .seed = 31});
    out.layout = telemetry::telemetry_row_layout(out.dataset.limits);
    util::Rng rng(8);
    out.model = std::make_unique<lm::Transformer>(
        lm::TransformerConfig{.vocab_size = out.tokenizer.vocab_size(),
                              .d_model = 16,
                              .n_layers = 2,
                              .n_heads = 2,
                              .d_ff = 24,
                              .max_seq = 48},
        rng);
    const auto windows = telemetry::all_windows(out.dataset);
    out.mined =
        rules::mine_rules(windows, out.layout, out.dataset.limits).rules;
    return out;
  }();
  return e;
}

core::DecoderConfig full_config() {
  return core::DecoderConfig{.mode = core::GuidanceMode::kFull};
}

// Decode `rows_per_thread` rows on each of four plain threads, one
// GuidedDecoder per thread over the LanguageModel `lm_for(t)` hands out.
template <typename LmFor>
std::vector<core::DecodeResult> decode_on_threads(LmFor&& lm_for,
                                                  std::size_t rows_per_thread) {
  constexpr std::size_t kThreads = 4;
  std::vector<core::DecodeResult> results(kThreads * rows_per_thread);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      core::GuidedDecoder decoder(lm_for(t), env().tokenizer, env().layout,
                                  env().mined, full_config());
      for (std::size_t r = 0; r < rows_per_thread; ++r) {
        const std::size_t row = t * rows_per_thread + r;
        util::Rng rng = core::row_rng(6, row, 0);
        results[row] = decoder.generate(rng);
      }
    });
  for (auto& thread : threads) thread.join();
  return results;
}

// Hazard 1: decoders on several threads over ONE shared Transformer share
// its internal KV cache. The guard must turn that race into a deterministic
// abort pointing at TransformerSession.
TEST(ServeStressDeathTest, SharedTransformerAcrossBatchWorkersAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Plenty of rows on several threads: each decode step calls
        // logits(), so overlapping entry is immediate and the guard fires
        // long before the rows complete.
        (void)decode_on_threads(
            [](std::size_t) -> const lm::LanguageModel& {
              return *env().model;
            },
            8);
      },
      "entered concurrently");
}

// The supported spellings of the same workload must NOT die: one decoder
// per thread via TransformerSession (its own KV cache view), or the serve
// runtime (which routes forwards through the Batcher, never the internal
// cache).
TEST(ServeStress, PerThreadSessionsDecodeTheSharedModelSafely) {
  std::vector<std::unique_ptr<lm::TransformerSession>> sessions;
  for (int t = 0; t < 4; ++t)
    sessions.push_back(std::make_unique<lm::TransformerSession>(*env().model));
  const auto results = decode_on_threads(
      [&](std::size_t t) -> const lm::LanguageModel& { return *sessions[t]; },
      6);
  ASSERT_EQ(results.size(), 24u);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_TRUE(results[i].ok) << "row " << i << ": " << results[i].fail_detail;
}

// Hazard 2: oversubscribed serve under tsan. 16 session threads on a small
// machine, two back-to-back runs reusing the same pool, output compared to
// the sequential oracle both times.
TEST(ServeStress, OversubscribedServerStaysBitIdenticalAcrossRuns) {
  const std::vector<std::string> prompts(48, std::string());

  core::GuidedDecoder reference(*env().model, env().tokenizer, env().layout,
                                env().mined, full_config());
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    util::Rng rng = core::row_rng(19, i, 0);
    expected.push_back(reference.generate(rng, prompts[i]).text);
  }

  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 4, .batch = 4, .queue_capacity = 8,
                            .seed = 19});
  for (int run = 0; run < 2; ++run) {
    const auto results = server.run(prompts);
    ASSERT_EQ(results.size(), expected.size()) << "run " << run;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(results[i].text, expected[i])
          << "run " << run << " row " << i;
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.rows, 96u);
  EXPECT_EQ(stats.degraded_rows, 0u);
}

std::size_t live_threads() {
  const std::filesystem::path tasks("/proc/self/task");
  if (!std::filesystem::exists(tasks)) return 0;
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator(tasks),
                    std::filesystem::directory_iterator()));
}

// Hazard 3: every session's decoder constructor throws (load-time lint over
// a contradictory rule set). The Server constructor must surface that error
// rather than hang, and start no session thread that could outlive it.
TEST(ServeStress, UnconstructibleSessionsThrowFromTheConstructor) {
  const auto parsed =
      rules::parse_rules("egress >= 50\negress <= 40\n", env().layout);
  ASSERT_TRUE(parsed.ok());
  core::DecoderConfig config = full_config();
  config.lint_on_load = true;

  const std::size_t threads_before = live_threads();
  EXPECT_THROW(Server(*env().model, env().tokenizer, env().layout,
                      parsed.rules, config,
                      ServeConfig{.workers = 2, .batch = 2}),
               util::RuntimeError);
  EXPECT_EQ(live_threads(), threads_before);
}

}  // namespace
}  // namespace lejit::serve
