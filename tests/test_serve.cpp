// lejit::serve — the batched serving runtime (DESIGN.md §13).
//
// The load-bearing property under test is the determinism contract: serve
// output for a fixed (seed, prompts) pair is bit-identical to a sequential
// per-row decode, independent of worker count, batch width, and scheduling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "fault/fault.hpp"
#include "rules/checker.hpp"
#include "rules/miner.hpp"
#include "serve/queue.hpp"
#include "serve/serve.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/text.hpp"

namespace lejit::serve {
namespace {

using telemetry::Window;

// --- BoundedQueue -------------------------------------------------------------

TEST(BoundedQueue, FifoAndDrainAfterClose) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3u);
  q.close();
  // Accepted items survive close(); only then does pop() report end.
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(3));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, PushAfterCloseIsRejected) {
  BoundedQueue<int> q(2);
  q.close();
  EXPECT_FALSE(q.push(1));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), util::PreconditionError);
}

TEST(BoundedQueue, FullQueueBackpressuresTheProducer) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> second_accepted{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks until the consumer makes room
    second_accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_accepted.load()) << "push must block while full";
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(second_accepted.load());
  EXPECT_EQ(q.pop(), std::optional<int>(2));
}

TEST(BoundedQueue, CloseUnblocksAWaitingProducer) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
}

// --- serving runtime ----------------------------------------------------------

struct Env {
  telemetry::Dataset dataset;
  telemetry::RowLayout layout;
  lm::CharTokenizer tokenizer{telemetry::row_alphabet()};
  std::unique_ptr<lm::Transformer> model;
  rules::RuleSet mined;
  std::vector<std::string> prompts;  // rules-compatible imputation prompts
  std::vector<Window> prompt_windows;  // the window each prompt came from
};

// A small *untrained* transformer: kFull guided decoding emits compliant
// rows regardless of LM quality, and serve's contract is about scheduling
// and bit-identity, not text quality.
const Env& env() {
  static const Env e = [] {
    Env out;
    out.dataset = telemetry::generate_dataset(telemetry::GeneratorConfig{
        .num_racks = 6, .windows_per_rack = 20, .seed = 99});
    out.layout = telemetry::telemetry_row_layout(out.dataset.limits);
    util::Rng rng(5);
    out.model = std::make_unique<lm::Transformer>(
        lm::TransformerConfig{.vocab_size = out.tokenizer.vocab_size(),
                              .d_model = 32,
                              .n_layers = 2,
                              .n_heads = 2,
                              .d_ff = 48,
                              .max_seq = 64},
        rng);
    const auto windows = telemetry::all_windows(out.dataset);
    out.mined =
        rules::mine_rules(windows, out.layout, out.dataset.limits).rules;
    for (const Window& w : windows)
      if (rules::violated_rules(out.mined, w).empty()) {
        out.prompts.push_back(telemetry::imputation_prompt(w));
        out.prompt_windows.push_back(w);
      }
    return out;
  }();
  return e;
}

core::DecoderConfig full_config() {
  return core::DecoderConfig{.mode = core::GuidanceMode::kFull};
}

// The sequential oracle: one decoder, core::row_rng per row — exactly the
// derivation the server uses.
std::vector<core::DecodeResult> sequential_decode(
    const std::vector<std::string>& prompts, std::uint64_t seed,
    const core::DecoderConfig& config = full_config()) {
  core::GuidedDecoder decoder(*env().model, env().tokenizer, env().layout,
                              env().mined, config);
  std::vector<core::DecodeResult> results;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    util::Rng rng = core::row_rng(seed, i, 0);
    results.push_back(decoder.generate(rng, prompts[i]));
  }
  return results;
}

void expect_identical(const std::vector<core::DecodeResult>& serve_results,
                      const std::vector<core::DecodeResult>& expected,
                      const char* what) {
  ASSERT_EQ(serve_results.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(serve_results[i].text, expected[i].text)
        << what << ": row " << i;
    EXPECT_EQ(serve_results[i].ok, expected[i].ok) << what << ": row " << i;
  }
}

// The fig3-style identity gate from the serving side: 64 synthesis rows
// through a 2x4 server must reproduce the sequential decode bit for bit.
TEST(Serve, SixtyFourRowBitIdentityAgainstSequentialDecode) {
  const std::vector<std::string> prompts(64, std::string());
  const auto expected = sequential_decode(prompts, 13);

  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(), ServeConfig{.workers = 2, .batch = 4,
                                           .seed = 13});
  const auto results = server.run(prompts);
  expect_identical(results, expected, "serve 2x4");
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << "row " << i << ": " << results[i].fail_detail;
    EXPECT_TRUE(rules::violated_rules(env().mined, *results[i].window).empty())
        << "row " << i << ": " << results[i].text;
  }

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.rows, 64u);
  EXPECT_EQ(stats.degraded_rows, 0u);
  EXPECT_EQ(stats.row_retries, 0u);
  EXPECT_GT(stats.batched_forwards, 0u);
}

TEST(Serve, DifferentSeedsDiffer) {
  const std::vector<std::string> prompts(4, std::string());
  const auto decode = [&](std::uint64_t seed) {
    Server server(*env().model, env().tokenizer, env().layout, env().mined,
                  full_config(),
                  ServeConfig{.workers = 2, .batch = 1, .seed = seed});
    return server.run(prompts);
  };
  const auto a = decode(1);
  const auto b = decode(2);
  int same = 0;
  for (std::size_t i = 0; i < prompts.size(); ++i)
    if (a[i].text == b[i].text) ++same;
  EXPECT_LT(same, 4);
}

TEST(RowRng, DeterministicAndDistinctAcrossRowsAndAttempts) {
  util::Rng a = core::row_rng(42, 7, 0);
  util::Rng b = core::row_rng(42, 7, 0);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different rows / attempts / seeds must diverge immediately — neighbors
  // re-rolling the same stream would decode identical rows.
  EXPECT_NE(core::row_rng(42, 7, 0).next_u64(),
            core::row_rng(42, 8, 0).next_u64());
  EXPECT_NE(core::row_rng(42, 7, 0).next_u64(),
            core::row_rng(42, 7, 1).next_u64());
  EXPECT_NE(core::row_rng(42, 7, 0).next_u64(),
            core::row_rng(43, 7, 0).next_u64());
}

TEST(Serve, OutputIndependentOfWorkerAndBatchConfiguration) {
  std::vector<std::string> prompts(env().prompts.begin(),
                                   env().prompts.begin() + 12);
  const auto expected = sequential_decode(prompts, 21);
  for (const auto& [workers, batch] :
       std::vector<std::pair<int, int>>{{1, 1}, {1, 3}, {3, 2}}) {
    Server server(*env().model, env().tokenizer, env().layout, env().mined,
                  full_config(),
                  ServeConfig{.workers = workers, .batch = batch, .seed = 21});
    expect_identical(server.run(prompts), expected, "config sweep");
  }
}

TEST(Serve, ServerIsReusableAcrossRuns) {
  const std::vector<std::string> prompts(10, std::string());
  const auto expected = sequential_decode(prompts, 3);
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 1, .batch = 4, .seed = 3});
  // Rows renumber from 0 each run(): two runs of the same prompts must give
  // the same rows twice, with pooled sessions (and their KV caches) reused.
  expect_identical(server.run(prompts), expected, "first run");
  expect_identical(server.run(prompts), expected, "second run");
  EXPECT_EQ(server.stats().rows, 20u);
  EXPECT_EQ(server.run({}).size(), 0u);
}

// --- fleet batches ---------------------------------------------------------------
//
// Server is the one fleet driver: whole synthesis and imputation batches go
// through run(), which must keep every row compliant, in input order, and
// independent of the schedule.

TEST(Batch, SynthesisProducesCompliantRows) {
  const std::vector<std::string> prompts(12, std::string());
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(), ServeConfig{.workers = 3, .batch = 1});
  const auto results = server.run(prompts);
  ASSERT_EQ(results.size(), 12u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.fail_detail;
    EXPECT_TRUE(rules::violated_rules(env().mined, *r.window).empty())
        << r.text;
  }
  EXPECT_EQ(server.stats().rows, 12u);
  EXPECT_EQ(server.stats().degraded_rows, 0u);
}

TEST(Batch, ImputationKeepsInputOrderAndPrompts) {
  ASSERT_GE(env().prompts.size(), 10u);
  const std::vector<std::string> prompts(env().prompts.begin(),
                                         env().prompts.begin() + 10);
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(), ServeConfig{.workers = 4, .batch = 1});
  const auto results = server.run(prompts);
  ASSERT_EQ(results.size(), prompts.size());
  std::size_t ok = 0;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    const auto& r = results[i];
    if (!r.ok) continue;  // infeasible prompts possible
    ++ok;
    EXPECT_TRUE(r.text.starts_with(prompts[i])) << "prompt lost at " << i;
    EXPECT_EQ(r.window->total, env().prompt_windows[i].total)
        << "order scrambled at " << i;
  }
  EXPECT_GT(ok, 0u);
}

TEST(Batch, ScheduleIndependentDeterminism) {
  const std::vector<std::string> prompts(8, std::string());
  const auto decode = [&](int workers) {
    Server server(*env().model, env().tokenizer, env().layout, env().mined,
                  full_config(),
                  ServeConfig{.workers = workers, .batch = 1, .seed = 5});
    return server.run(prompts);
  };
  const auto a = decode(1);
  const auto b = decode(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].text, b[i].text) << "index " << i;
}

TEST(Batch, EmptyInputIsANoOp) {
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(), ServeConfig{});
  EXPECT_TRUE(server.run({}).empty());
  EXPECT_EQ(server.stats().rows, 0u);
  EXPECT_EQ(server.stats().degraded_rows, 0u);
}

TEST(Serve, SessionsActuallyBatchTheirForwards) {
  const std::vector<std::string> prompts(24, std::string());
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 1, .batch = 4, .seed = 9});
  (void)server.run(prompts);
  const ServeStats stats = server.stats();
  // With 24 rows over 4 sessions of one group, a meaningful fraction of
  // forwards must have been fused (width > 1); width can never exceed the
  // group size.
  EXPECT_GT(stats.mean_batch_width(), 1.0);
  EXPECT_LE(stats.mean_batch_width(), 4.0);
  EXPECT_GE(stats.forwarded_contexts, stats.batched_forwards);
}

TEST(Serve, SharedCompiledPlanKeepsDecodesBitIdentical) {
  // compile_plan is hoisted into the Server constructor (one compile shared
  // by all sessions); the plan must not change decoded text.
  std::vector<std::string> prompts(env().prompts.begin(),
                                   env().prompts.begin() + 6);
  const auto expected = sequential_decode(prompts, 17);
  core::DecoderConfig config = full_config();
  config.compile_plan = true;
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                config,
                ServeConfig{.workers = 2, .batch = 2, .seed = 17});
  expect_identical(server.run(prompts), expected, "shared plan");
}

// A batched forward that throws (fault injection at lm_forward — the same
// hook the resilience suite arms) must complete the rendezvous round with
// the exception instead of abandoning it: every session rethrows from
// forward(), marks its row degraded, and the group keeps serving. Before
// the fix, the leader's unwind left waiting_ pointing at destroyed
// stack Pendings — followers hung forever and run() never returned.
TEST(Serve, ThrowingForwardDegradesRowsInsteadOfWedgingTheGroup) {
  const std::vector<std::string> prompts(16, std::string());
  const auto expected = sequential_decode(prompts, 29);
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 1, .batch = 4, .seed = 29});
  {
    fault::Plan plan;
    plan.site(fault::Site::kLmForward).p_throw = 1.0;
    const fault::ScopedPlan scoped{plan};
    const auto results = server.run(prompts);  // hangs here on regression
    ASSERT_EQ(results.size(), prompts.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_FALSE(results[i].ok) << "row " << i;
      EXPECT_EQ(results[i].reason, core::FailReason::kFault) << "row " << i;
    }
    EXPECT_EQ(server.stats().degraded_rows, prompts.size());
    EXPECT_EQ(server.stats().row_retries,
              prompts.size() *
                  static_cast<std::size_t>(Server::kRowAttempts - 1));
  }
  // Disarmed, the same session pool (KV caches reset on the faulted rows)
  // must again match the sequential oracle bit for bit.
  expect_identical(server.run(prompts), expected, "after fault storm");
}

// Partial fault rate: a round that throws fails an attempt of exactly its
// members, which retry; every row that is not degraded — retried or not — is
// still bit-identical to the sequential decode of that (seed, row) pair.
TEST(Serve, SurvivingRowsStayBitIdenticalUnderInjectedFaults) {
  const std::vector<std::string> prompts(32, std::string());
  const auto expected = sequential_decode(prompts, 41);
  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 2, .batch = 2, .seed = 41});
  fault::Plan plan;
  plan.site(fault::Site::kLmForward).p_throw = 0.05;
  const fault::ScopedPlan scoped{plan};
  const auto results = server.run(prompts);
  ASSERT_EQ(results.size(), prompts.size());
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].reason == core::FailReason::kFault) {
      ++degraded;
      EXPECT_FALSE(results[i].ok) << "row " << i;
    } else {
      EXPECT_EQ(results[i].text, expected[i].text) << "row " << i;
      EXPECT_EQ(results[i].ok, expected[i].ok) << "row " << i;
    }
  }
  EXPECT_EQ(server.stats().degraded_rows, degraded);
  EXPECT_GT(server.stats().row_retries, 0u);
}

// --- row fault isolation -------------------------------------------------------

// A scripted fault on one attempt of row 2: the row retries on its session
// (same RNG stream) and recovers bit-identical to the sequential oracle.
TEST(BatchIsolation, RetriedRowRecoversAndTheBatchIsClean) {
  const std::vector<std::string> prompts(6, std::string());
  const auto expected = sequential_decode(prompts, 9);
  fault::Plan plan;
  plan.fail_rows = {{2, 1}};  // row 2 fails attempt 0 only
  const fault::ScopedPlan scoped{plan};

  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 2, .batch = 2, .seed = 9});
  const auto results = server.run(prompts);
  expect_identical(results, expected, "retried row");
  EXPECT_TRUE(results[2].ok) << results[2].fail_detail;
  EXPECT_EQ(server.stats().degraded_rows, 0u);
  EXPECT_EQ(server.stats().row_retries, 1u);
}

// A row that throws on every attempt degrades alone; its neighbors decode
// exactly as the sequential oracle does.
TEST(BatchIsolation, ExhaustedRetriesDegradeTheRowNotTheBatch) {
  const std::vector<std::string> prompts(6, std::string());
  const auto expected = sequential_decode(prompts, 9);
  fault::Plan plan;
  plan.fail_rows = {{2, 99}};  // row 2 fails every attempt
  const fault::ScopedPlan scoped{plan};

  Server server(*env().model, env().tokenizer, env().layout, env().mined,
                full_config(),
                ServeConfig{.workers = 2, .batch = 2, .seed = 9});
  const auto results = server.run(prompts);
  ASSERT_EQ(results.size(), prompts.size());
  const core::DecodeResult& degraded = results[2];
  EXPECT_FALSE(degraded.ok);
  EXPECT_EQ(degraded.reason, core::FailReason::kFault);
  EXPECT_NE(degraded.fail_detail.find("row 2"), std::string::npos)
      << degraded.fail_detail;
  EXPECT_EQ(fault::Injector::instance().counts().row_faults,
            Server::kRowAttempts);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(results[i].ok) << "row " << i;
    EXPECT_EQ(results[i].text, expected[i].text) << "row " << i;
  }
  EXPECT_EQ(server.stats().degraded_rows, 1u);
  EXPECT_EQ(server.stats().row_retries,
            static_cast<std::uint64_t>(Server::kRowAttempts - 1));
}

// Retries keep the determinism contract at every schedule: with several
// rows recovering on their second or third attempt, every configuration
// reproduces the sequential oracle bit for bit.
TEST(BatchIsolation, IsolationDefaultsPreserveDeterminism) {
  std::vector<std::string> prompts(env().prompts.begin(),
                                   env().prompts.begin() + 8);
  const auto expected = sequential_decode(prompts, 4);
  fault::Plan plan;
  plan.fail_rows = {{0, 1}, {3, 2}, {7, 1}};
  for (const auto& [workers, batch] :
       std::vector<std::pair<int, int>>{{1, 1}, {4, 1}, {2, 2}}) {
    const fault::ScopedPlan scoped{plan};
    Server server(*env().model, env().tokenizer, env().layout, env().mined,
                  full_config(),
                  ServeConfig{.workers = workers, .batch = batch, .seed = 4});
    expect_identical(server.run(prompts), expected, "retried rows");
    EXPECT_EQ(server.stats().degraded_rows, 0u);
    EXPECT_EQ(server.stats().row_retries, 4u);
  }
}

TEST(Serve, RejectsDegenerateConfigs) {
  EXPECT_THROW(Server(*env().model, env().tokenizer, env().layout,
                      env().mined, full_config(),
                      ServeConfig{.workers = 0}),
               util::PreconditionError);
  EXPECT_THROW(Server(*env().model, env().tokenizer, env().layout,
                      env().mined, full_config(),
                      ServeConfig{.batch = 0}),
               util::PreconditionError);
  EXPECT_THROW(Server(*env().model, env().tokenizer, env().layout,
                      env().mined, full_config(),
                      ServeConfig{.queue_capacity = 0}),
               util::PreconditionError);
}

}  // namespace
}  // namespace lejit::serve
