// Deterministic fault injection for resilience testing.
//
// The decode hot path has three places where the real world can hurt it: a
// solver check can come back inconclusive (budget/deadline exhaustion), an LM
// forward pass can fail or stall (a remote inference backend), and a whole
// serve row can die (a poisoned prompt, an OOM'd worker). The `Injector`
// simulates all three on demand so the resilience machinery — kUnknown
// policies, dead-end recovery, per-row isolation — can be exercised by
// ordinary ctest runs instead of waiting for production incidents.
//
// Design rules, mirroring `obs`:
//   1. Near-zero cost when disarmed: every hook reduces to one relaxed
//      atomic load. Production binaries carry the hooks; nothing happens
//      unless a test (or a CLI flag) arms a plan.
//   2. Deterministic given a seed. A decision for the k-th call at a site is
//      a pure hash of (seed, site, k), so a single-threaded run replays
//      bit-identically. Under a thread pool the per-site call order is
//      schedule-dependent, but the *rate* of injected faults is not — stress
//      tests assert on aggregate counts, which the injector also reports.
//   3. Scripted faults for targeted scenarios: "row 5 fails its first two
//      attempts" is expressed directly, independent of probabilities.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace lejit::fault {

// Thrown by armed hooks (and nothing else); catchable where a subsystem
// wants to distinguish injected faults from real ones.
class InjectedFault : public util::RuntimeError {
 public:
  using util::RuntimeError::RuntimeError;
};

// Hook sites. Extend here (and in site_name) as new subsystems grow hooks.
enum class Site : int {
  kSolverCheck = 0,  // smt::Solver::check_assuming → force kUnknown
  kLmForward,        // lm::LanguageModel::logits → throw / stall
  kBatchRow,         // serve row attempt → throw (scripted only)
  // smt::SubprocessBackend wire faults. These are *fire* sites: p_unknown is
  // the probability the fault fires (see inject_fire), and the backend turns
  // a firing into the real failure path — SIGKILLing its child, simulating a
  // wedged read, or corrupting the answer — so tests exercise exactly the
  // code a crashed/hung/buggy external solver would.
  kSubprocessKill,    // kill the child under a live check (crash path)
  kSubprocessHang,    // child never answers (timeout path)
  kSubprocessGarble,  // child answers garbage (protocol-error path)
  kCount,
};

std::string_view site_name(Site s) noexcept;

// Per-site probabilistic behavior. Probabilities are evaluated in the order
// unknown → throw → delay against one uniform draw, so they partition: a
// call suffers at most one fault kind and p_unknown + p_throw + p_delay
// should stay <= 1.
struct SiteConfig {
  double p_unknown = 0.0;     // kSolverCheck only: report kUnknown
  double p_throw = 0.0;       // throw InjectedFault from the hook
  double p_delay = 0.0;       // stall the call for delay_us
  std::int64_t delay_us = 0;  // injected latency per delayed call
};

// A complete injection scenario.
struct Plan {
  std::uint64_t seed = 1;
  std::array<SiteConfig, static_cast<int>(Site::kCount)> sites{};

  // Scripted row faults: {row index, attempts}. The row's first `attempts`
  // serve attempts throw InjectedFault; attempt numbers past that succeed.
  // Use attempts >= serve::Server::kRowAttempts to force a degraded row.
  std::vector<std::pair<std::size_t, int>> fail_rows;

  SiteConfig& site(Site s) { return sites[static_cast<std::size_t>(s)]; }
  const SiteConfig& site(Site s) const {
    return sites[static_cast<std::size_t>(s)];
  }
};

// What the injector actually did — the ground truth stress tests compare
// observability counters against.
struct Counts {
  std::int64_t calls = 0;     // armed hook evaluations (probabilistic sites)
  std::int64_t unknowns = 0;  // forced kUnknown results
  std::int64_t throws = 0;    // InjectedFault thrown (probabilistic sites)
  std::int64_t delays = 0;    // stalled calls
  std::int64_t row_faults = 0;  // scripted row throws (fail_rows)
};

class Injector {
 public:
  static Injector& instance();

  // Install `plan` and start injecting. Counts are zeroed. Not reentrant
  // with in-flight hooks of a previous plan; arm/disarm from test setup, not
  // from worker threads.
  void arm(Plan plan);
  void disarm() noexcept;
  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  // Probabilistic hook. Returns true when the call must degrade to
  // kUnknown; may sleep (delay) or throw InjectedFault instead. No-op
  // returning false when disarmed.
  bool on_call(Site site);

  // Scripted hook, called by serve::Server before each row attempt: throws
  // InjectedFault iff `plan.fail_rows` schedules a fault for this
  // (row, attempt). Attempt numbers start at 0.
  void on_batch_row(std::size_t row, int attempt);

  Counts counts() const noexcept;

 private:
  Injector() = default;

  std::atomic<bool> armed_{false};
  Plan plan_;
  std::array<std::atomic<std::uint64_t>, static_cast<int>(Site::kCount)>
      call_index_{};
  std::atomic<std::int64_t> calls_{0};
  std::atomic<std::int64_t> unknowns_{0};
  std::atomic<std::int64_t> throws_{0};
  std::atomic<std::int64_t> delays_{0};
  std::atomic<std::int64_t> row_faults_{0};
};

// Arms `plan` for the current scope; disarms on destruction. The standard
// way for a test to bound the blast radius of an injection scenario.
class ScopedPlan {
 public:
  explicit ScopedPlan(Plan plan) { Injector::instance().arm(std::move(plan)); }
  ~ScopedPlan() { Injector::instance().disarm(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

// Hot-path helpers: one relaxed load when disarmed.
inline bool inject_unknown(Site site) {
  Injector& i = Injector::instance();
  return i.armed() && i.on_call(site);
}
inline void inject(Site site) {
  Injector& i = Injector::instance();
  if (i.armed()) i.on_call(site);
}
// Generic "should this site's fault fire now?" — same mechanics as
// inject_unknown (the site's p_unknown is the firing probability), named for
// sites whose fault is not a kUnknown verdict (the subprocess kill/hang/
// garble sites).
inline bool inject_fire(Site site) { return inject_unknown(site); }

}  // namespace lejit::fault
