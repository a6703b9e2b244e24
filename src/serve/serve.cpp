#include "serve/serve.hpp"

#include <exception>

#include "core/batch.hpp"
#include "fault/fault.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace lejit::serve {

DecodeSession::DecodeSession(Batcher& batcher, const lm::Transformer& model,
                             const lm::CharTokenizer& tokenizer,
                             const telemetry::RowLayout& layout,
                             rules::RuleSet rules,
                             const core::DecoderConfig& config)
    : model_(batcher, model),
      decoder_(model_, tokenizer, layout, std::move(rules), config) {}

// One synchronous run() call: owned prompt copies, results slots, plus a
// countdown latch the session threads decrement as rows finish. The prompts
// live here — not in the caller's span — so Jobs stay self-contained even
// if run() unwinds before the rows drain (e.g. push on a closed queue).
struct Server::RunState {
  std::vector<std::string> prompts;  // immutable once jobs are queued
  util::Mutex mu;
  util::CondVar done_cv;
  std::vector<core::DecodeResult> results LEJIT_GUARDED_BY(mu);
  std::size_t remaining LEJIT_GUARDED_BY(mu) = 0;

  // Safe only because the caller's Job holds a shared_ptr to this state:
  // once remaining hits 0, run() may wake and return at any point, so the
  // notify below must not be the last reference's race against destruction.
  void deliver(std::size_t row, core::DecodeResult result) {
    util::MutexLock lock(mu);
    results[row] = std::move(result);
    if (--remaining == 0) {
      lock.unlock();
      done_cv.notify_all();
    }
  }
};

Server::Server(const lm::Transformer& model,
               const lm::CharTokenizer& tokenizer,
               const telemetry::RowLayout& layout, rules::RuleSet rules,
               core::DecoderConfig decoder_config, ServeConfig config)
    : config_(config), queue_(config.queue_capacity) {
  LEJIT_REQUIRE(config_.workers > 0, "serve: workers must be positive");
  LEJIT_REQUIRE(config_.batch > 0, "serve: batch must be positive");

  // Compile the decode plan once and share the artifact, instead of letting
  // every session's decoder constructor redo the identical compile.
  if (decoder_config.compile_plan && !decoder_config.plan) {
    decoder_config.plan =
        plan::compile(rules, layout, decoder_config.plan_config);
    decoder_config.compile_plan = false;
  }

  groups_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    auto group = std::make_unique<Group>(model);
    group->sessions.reserve(static_cast<std::size_t>(config_.batch));
    for (int b = 0; b < config_.batch; ++b)
      group->sessions.push_back(std::make_unique<DecodeSession>(
          group->batcher, model, tokenizer, layout, rules, decoder_config));
    groups_.push_back(std::move(group));
  }

  // Threads start only after every session constructed, so a throwing
  // constructor leaves nothing to join.
  threads_.reserve(
      static_cast<std::size_t>(config_.workers * config_.batch));
  for (auto& group : groups_)
    for (auto& session : group->sessions)
      threads_.emplace_back(
          [this, &group, &session] { session_main(*group, *session); });
}

Server::~Server() {
  queue_.close();
  for (auto& t : threads_) t.join();
}

void Server::session_main(Group& group, DecodeSession& session) {
  while (auto job = queue_.pop()) {
    group.batcher.activate();
    core::DecodeResult result =
        decode_row(session, job->row, job->run->prompts[job->row]);
    // Leave the rendezvous before delivering: the group must never wait on a
    // session that is done with its row.
    group.batcher.deactivate();
    rows_.fetch_add(1, std::memory_order_relaxed);
    job->run->deliver(job->row, std::move(result));
  }
}

core::DecodeResult Server::decode_row(DecodeSession& session,
                                      std::size_t row,
                                      std::string_view prompt) {
  std::string last_error;
  for (int attempt = 0; attempt < kRowAttempts; ++attempt) {
    if (attempt > 0) {
      row_retries_.fetch_add(1, std::memory_order_relaxed);
      if (obs::metrics_enabled()) {
        static obs::Counter& c_retries =
            obs::MetricsRegistry::instance().counter("serve.row_retries");
        c_retries.inc();
      }
    }
    try {
      fault::Injector::instance().on_batch_row(row, attempt);
      // Every attempt replays the row's one RNG stream, so a row that
      // succeeds on a retry is bit-identical to its sequential decode.
      util::Rng rng = core::row_rng(config_.seed, row, 0);
      return session.decode(rng, prompt);
    } catch (const std::exception& e) {
      last_error = e.what();
      // The throw may have interrupted a KV-cache update mid-write; drop the
      // cached prefix so the fault stays confined to this attempt.
      session.reset_lm_cache();
      LEJIT_LOG_WARN("serve row " + std::to_string(row) + " attempt " +
                     std::to_string(attempt + 1) + "/" +
                     std::to_string(kRowAttempts) + " failed: " + last_error);
    }
  }
  degraded_rows_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics_enabled()) {
    static obs::Counter& c_degraded =
        obs::MetricsRegistry::instance().counter("serve.degraded_rows");
    c_degraded.inc();
  }
  core::DecodeResult result;
  result.reason = core::FailReason::kFault;
  result.fail_detail = "serve row " + std::to_string(row) + " degraded after " +
                       std::to_string(kRowAttempts) +
                       " attempts: " + last_error;
  return result;
}

std::vector<core::DecodeResult> Server::run(
    std::span<const std::string> prompts) {
  if (prompts.empty()) return {};
  auto state = std::make_shared<RunState>();
  state->prompts.assign(prompts.begin(), prompts.end());
  {
    // No session thread can see the state before its job is queued, but the
    // guarded members are initialized under the lock anyway — uncontended,
    // and it keeps the thread-safety analysis exact.
    const util::MutexLock lock(state->mu);
    state->results.resize(prompts.size());
    state->remaining = prompts.size();
  }

  util::Timer timer;
  for (std::size_t i = 0; i < state->prompts.size(); ++i) {
    const bool accepted = queue_.push(Job{i, state});
    LEJIT_REQUIRE(accepted, "serve: run() on a closed server");
  }
  std::vector<core::DecodeResult> results;
  {
    util::MutexLock lock(state->mu);
    while (state->remaining != 0) state->done_cv.wait(lock);
    results = std::move(state->results);
  }

  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::instance();
    static obs::Counter& c_rows = registry.counter("serve.rows");
    static obs::Histogram& h_latency = registry.histogram(
        "serve.run_latency_us", obs::HistogramOptions::latency_us());
    c_rows.add(static_cast<std::int64_t>(prompts.size()));
    h_latency.observe(timer.elapsed_seconds() * 1e6);
  }
  return results;
}

ServeStats Server::stats() const {
  ServeStats stats;
  stats.rows = rows_.load(std::memory_order_relaxed);
  stats.degraded_rows = degraded_rows_.load(std::memory_order_relaxed);
  stats.row_retries = row_retries_.load(std::memory_order_relaxed);
  for (const auto& group : groups_) {
    std::uint64_t forwards = 0, contexts = 0;
    group->batcher.snapshot(forwards, contexts);
    stats.batched_forwards += forwards;
    stats.forwarded_contexts += contexts;
  }
  return stats;
}

}  // namespace lejit::serve
