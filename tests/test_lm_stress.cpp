// Batched-forward identity under the serve access pattern (ctest label
// `stress`, so the sanitizer jobs run it too).
//
// One logits_batch round can hold a session's whole prompt prefill next to
// other sessions' one-token steps, and sessions past the max_seq-1 window
// recompute their whole window every step. Every session's logits must
// still equal a sequential logits() call bit for bit, on every compiled
// instruction-set path.
#include <gtest/gtest.h>

#include <vector>

#include "lm/forward.hpp"
#include "lm/transformer.hpp"

namespace lejit::lm {
namespace {

TEST(TransformerStress, BatchedPrefillAndStepsAcrossWindowMatchSequential) {
  util::Rng rng(46);
  const Transformer m(TransformerConfig{.vocab_size = 19, .d_model = 64,
                                        .n_layers = 2, .n_heads = 4,
                                        .d_ff = 128, .max_seq = 64},
                      rng);
  constexpr std::size_t kSessions = 4;
  constexpr int kRounds = 8;
  util::Rng toks(47);
  const auto token = [&toks] {
    return static_cast<int>(toks.uniform_int(0, 18));
  };

  for (const detail::Isa isa : {detail::Isa::kGeneric, detail::Isa::kAvx2}) {
    if (!detail::isa_supported(isa)) continue;
    // Session 0 starts a fresh 23-token prompt every round (24 positions
    // with START); sessions 1..3 step one token a round from 58, 60 and 62
    // tokens, so they cross the 63-token window at different rounds.
    std::vector<std::vector<int>> ctxs(kSessions);
    for (std::size_t s = 1; s < kSessions; ++s)
      for (std::size_t i = 0; i < 56 + 2 * s; ++i) ctxs[s].push_back(token());
    std::vector<KvCache> caches(kSessions), ref_caches(kSessions);
    std::vector<KvCache*> ptrs;
    for (auto& c : caches) ptrs.push_back(&c);
    for (std::size_t s = 1; s < kSessions; ++s)
      (void)m.logits(ctxs[s], caches[s]);

    for (int round = 0; round < kRounds; ++round) {
      ctxs[0].clear();
      for (int i = 0; i < 23; ++i) ctxs[0].push_back(token());
      for (std::size_t s = 1; s < kSessions; ++s) ctxs[s].push_back(token());
      const auto batched = detail::ForwardAccess::logits(m, ctxs, ptrs, isa);
      ASSERT_EQ(batched.size(), kSessions);
      for (std::size_t s = 0; s < kSessions; ++s)
        EXPECT_EQ(batched[s], m.logits(ctxs[s], ref_caches[s]))
            << "isa " << static_cast<int>(isa) << " round " << round
            << " session " << s << " (" << ctxs[s].size() << " tokens)";
    }
  }
}

}  // namespace
}  // namespace lejit::lm
