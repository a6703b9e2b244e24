#include "serve/batcher.hpp"

#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace lejit::serve {

void Batcher::activate() {
  const util::MutexLock lock(mu_);
  ++active_;
}

void Batcher::deactivate() {
  util::MutexLock lock(mu_);
  LEJIT_ASSERT(active_ > 0, "deactivate without matching activate");
  --active_;
  // The group may have been waiting only for us: fire for the others. A
  // failing forward is routed to the waiting sessions' forward() calls, so
  // nothing throws out of this row-boundary bookkeeping (which runs outside
  // session_main's per-row try/catch).
  if (!waiting_.empty() && static_cast<int>(waiting_.size()) == active_)
    fire(lock);
}

std::vector<float> Batcher::forward(std::span<const int> context,
                                    lm::KvCache& cache) {
  util::MutexLock lock(mu_);
  // Validate before registering: a throwing assert must not leave a dangling
  // Pending* in waiting_ for a later fire() to dereference.
  LEJIT_ASSERT(static_cast<int>(waiting_.size()) < active_,
               "forward() from a session that never activated");
  Pending pending;
  pending.context.assign(context.begin(), context.end());
  pending.cache = &cache;
  waiting_.push_back(&pending);
  if (static_cast<int>(waiting_.size()) == active_)
    fire(lock);  // we are the last arrival: lead this round
  else
    while (!pending.done) cv_.wait(lock);
  if (pending.error) std::rethrow_exception(pending.error);
  return std::move(pending.out);
}

void Batcher::fire(util::MutexLock& lock) {
  // Take over this round's requests. Arrivals during the unlocked compute
  // below open the next round; they can never complete it early, because
  // every member of this round still counts in active_ until its forward()
  // returns, so waiting_ cannot reach active_ again before we publish.
  std::vector<Pending*> round;
  round.swap(waiting_);

  std::vector<std::vector<int>> contexts;
  std::vector<lm::KvCache*> caches;
  contexts.reserve(round.size());
  caches.reserve(round.size());
  for (Pending* p : round) {
    contexts.push_back(std::move(p->context));
    caches.push_back(p->cache);
  }

  // Compute without mu_ so activate()/deactivate()/snapshot() — finished
  // sessions and Server::stats() — stay responsive during the forward,
  // which dominates serve wall time.
  lock.unlock();
  std::vector<std::vector<float>> outs;
  std::optional<std::string> error;
  try {
    outs = model_.logits_batch(contexts, caches);
  } catch (const std::exception& e) {
    // The round must still complete: every member rethrows from forward()
    // and degrades its own row, instead of followers waiting forever on
    // stack-allocated Pendings the leader's unwind would destroy.
    error = e.what();
  } catch (...) {
    error = "batched forward failed with a non-standard exception";
  }
  lock.lock();

  if (!error) {
    ++forwards_;
    contexts_ += round.size();
    if (obs::metrics_enabled()) {
      auto& registry = obs::MetricsRegistry::instance();
      static obs::Counter& c_forwards = registry.counter("serve.batch.forwards");
      static obs::Histogram& h_width = registry.histogram(
          "serve.batch.width", obs::HistogramOptions::linear(0.0, 32.0, 32));
      c_forwards.inc();
      h_width.observe(static_cast<double>(round.size()));
    }
  }

  for (std::size_t i = 0; i < round.size(); ++i) {
    // Each member gets its own exception object: one shared exception_ptr
    // would let one session thread destroy the object while another still
    // reads its what().
    if (error)
      round[i]->error = std::make_exception_ptr(util::RuntimeError(*error));
    else
      round[i]->out = std::move(outs[i]);
    round[i]->done = true;
  }
  cv_.notify_all();
}

void Batcher::snapshot(std::uint64_t& forwards, std::uint64_t& contexts) const {
  const util::MutexLock lock(mu_);
  forwards = forwards_;
  contexts = contexts_;
}

}  // namespace lejit::serve
