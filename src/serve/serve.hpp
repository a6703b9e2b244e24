// lejit::serve — the long-lived batched decode service (DESIGN.md §13).
//
// Turns the one-shot decode workflow into a serving runtime: a bounded
// request queue feeds `workers` independent batch groups, each group holds
// `batch` pool-allocated DecodeSessions decoding rows concurrently, and the
// sessions of a group fuse their LM forwards into cross-row batched matmuls
// through a Batcher rendezvous. The expensive immutable state — model
// weights, tokenizer, compiled decode plan, static lint hulls, backend
// configuration — is loaded once and shared read-only by every session;
// each session owns only its cheap per-row state (decoder walk + feasibility
// cache, solver scopes, RNG, private KV cache).
//
// Determinism contract: row i of a run() call is decoded with the RNG
// core::row_rng(seed, i, 0) — on every attempt, retries included — and the
// batched forward is bit-identical per session to the sequential one, so
// every non-degraded serve row for a fixed (seed, prompts) pair is
// bit-identical to a sequential per-row decode, independent of worker
// count, batch width, queue order, thread scheduling, and row faults.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/decoder.hpp"
#include "lm/tokenizer.hpp"
#include "lm/transformer.hpp"
#include "serve/batcher.hpp"
#include "serve/queue.hpp"

namespace lejit::serve {

struct ServeConfig {
  // Independent batch groups; each gets its own Batcher and `batch`
  // sessions, so the total decode concurrency is workers * batch.
  int workers = 1;
  // Sessions per group = target width of each batched LM forward.
  int batch = 4;
  // Admission queue bound: submissions beyond this backpressure the caller.
  std::size_t queue_capacity = 1024;
  // Row RNG seed: row i decodes with core::row_rng(seed, i, 0).
  std::uint64_t seed = 1;
};

struct ServeStats {
  std::uint64_t rows = 0;            // rows decoded across all run() calls
  std::uint64_t degraded_rows = 0;   // rows whose every attempt threw (kFault)
  std::uint64_t row_retries = 0;     // row attempts beyond the first
  std::uint64_t batched_forwards = 0;   // Transformer::logits_batch calls
  std::uint64_t forwarded_contexts = 0; // Σ batch width over those calls

  // Realized batching: contexts served per weight-matrix sweep.
  double mean_batch_width() const {
    return batched_forwards == 0
               ? 0.0
               : static_cast<double>(forwarded_contexts) /
                     static_cast<double>(batched_forwards);
  }
};

// One pooled decode session: a GuidedDecoder whose LM calls are routed
// through the group's Batcher with a session-private KV cache. Sessions are
// allocated once at server start and reused for every row they pull off the
// queue — per-row cost is just the decoder's walk reset, not solver or model
// setup.
class DecodeSession {
 public:
  DecodeSession(Batcher& batcher, const lm::Transformer& model,
                const lm::CharTokenizer& tokenizer,
                const telemetry::RowLayout& layout, rules::RuleSet rules,
                const core::DecoderConfig& config);

  DecodeSession(const DecodeSession&) = delete;
  DecodeSession& operator=(const DecodeSession&) = delete;

  core::DecodeResult decode(util::Rng& rng, std::string_view prompt) {
    return decoder_.generate(rng, prompt);
  }

  // Called after a decode threw: discards the session's KV prefix so the
  // fault cannot leak an inconsistent cache into the next row.
  void reset_lm_cache() noexcept { model_.reset_cache(); }

 private:
  // LanguageModel proxy: blocks in the Batcher until the group's batched
  // forward serves this session's context.
  class BatchedModel final : public lm::LanguageModel {
   public:
    BatchedModel(Batcher& batcher, const lm::Transformer& model)
        : batcher_(batcher), vocab_(model.vocab_size()) {}
    int vocab_size() const override { return vocab_; }
    std::vector<float> logits(std::span<const int> context) const override {
      return batcher_.forward(context, cache_);
    }
    // Drop the cached prefix. A forward that threw mid-update can leave the
    // cache's recorded ids ahead of its written K/V rows; clearing forces a
    // full recompute on the next row instead of reusing a poisoned prefix.
    void reset_cache() noexcept { cache_.clear(); }

   private:
    Batcher& batcher_;
    int vocab_;
    mutable lm::KvCache cache_;
  };

  BatchedModel model_;  // must outlive decoder_ (declared first)
  core::GuidedDecoder decoder_;
};

class Server {
 public:
  // Shares `model` and `tokenizer` (borrowed; must outlive the server)
  // across all sessions. When `decoder_config.compile_plan` is set, the plan
  // is compiled ONCE here and handed to every session, instead of once per
  // session. Construction builds all workers * batch sessions and starts
  // their threads.
  Server(const lm::Transformer& model, const lm::CharTokenizer& tokenizer,
         const telemetry::RowLayout& layout, rules::RuleSet rules,
         core::DecoderConfig decoder_config, ServeConfig config);
  ~Server();  // closes the queue and joins all session threads

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Decode one row per prompt (empty prompt = synthesis) and return results
  // in input order. Synchronous; may be called repeatedly — sessions, caches
  // and plan survive across calls. Rows are numbered from 0 per call, so a
  // run() with the same (seed, prompts) always returns the same rows.
  // A row whose decode throws is retried on its session (KV cache reset
  // first), up to kRowAttempts attempts in all; a row whose every attempt
  // throws is reported degraded (FailReason::kFault) rather than taking the
  // run down.
  std::vector<core::DecodeResult> run(std::span<const std::string> prompts);

  ServeStats stats() const;
  const ServeConfig& config() const noexcept { return config_; }

  // Fixed row fault budget: the first attempt plus two retries, no backoff.
  static constexpr int kRowAttempts = 3;

 private:
  struct RunState;
  struct Job {
    std::size_t row = 0;
    // Shared, not borrowed: the session thread's copy keeps the run's
    // prompts and condition variable alive through the final
    // deliver()/notify_all even after run() has already returned — or
    // unwound early on a concurrently closed queue.
    std::shared_ptr<RunState> run;
  };
  struct Group {
    explicit Group(const lm::Transformer& model) : batcher(model) {}
    Batcher batcher;
    std::vector<std::unique_ptr<DecodeSession>> sessions;
  };

  void session_main(Group& group, DecodeSession& session);
  core::DecodeResult decode_row(DecodeSession& session, std::size_t row,
                                std::string_view prompt);

  ServeConfig config_;
  BoundedQueue<Job> queue_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> rows_{0};
  std::atomic<std::uint64_t> degraded_rows_{0};
  std::atomic<std::uint64_t> row_retries_{0};
};

}  // namespace lejit::serve
