#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>

#include "lm/forward.hpp"
#include "lm/ngram.hpp"
#include "lm/trainer.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"

namespace lejit::lm {
namespace {

std::vector<double> probs_of(const LanguageModel& m,
                             std::span<const int> ctx) {
  const auto logits = m.logits(ctx);
  std::vector<double> p(logits.size());
  double total = 0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    p[i] = std::exp(static_cast<double>(logits[i]));
    total += p[i];
  }
  for (double& v : p) v /= total;
  return p;
}

// --- n-gram ------------------------------------------------------------------

TEST(NgramModel, UntrainedIsUniform) {
  const NgramModel m(4);
  const auto p = probs_of(m, {});
  for (const double v : p) EXPECT_NEAR(v, 0.25, 1e-6);
}

TEST(NgramModel, LearnsDeterministicSequence) {
  NgramModel m(3, NgramConfig{.order = 3});
  const std::vector<int> row{0, 1, 2, 0, 1, 2, 0, 1, 2};
  for (int i = 0; i < 20; ++i) m.observe(row);
  const std::vector<int> ctx{0, 1};
  const auto p = probs_of(m, ctx);
  EXPECT_GT(p[2], 0.8) << "after (0,1) the next token is always 2";
}

TEST(NgramModel, BacksOffForUnseenContext) {
  NgramModel m(3, NgramConfig{.order = 3});
  // Unigram distribution heavily favors token 1.
  const std::vector<int> row{1, 1, 1, 1, 0};
  for (int i = 0; i < 10; ++i) m.observe(row);
  // Context (2,2) was never observed: backoff should still prefer 1.
  const std::vector<int> ctx{2, 2};
  const auto p = probs_of(m, ctx);
  EXPECT_GT(p[1], p[0]);
  EXPECT_GT(p[1], p[2]);
}

TEST(NgramModel, LogitsAreFiniteAndSizedToVocab) {
  NgramModel m(7);
  m.observe(std::vector<int>{0, 1, 2, 3, 4, 5, 6});
  const auto logits = m.logits(std::vector<int>{3});
  ASSERT_EQ(logits.size(), 7u);
  for (const float l : logits) EXPECT_TRUE(std::isfinite(l));
}

TEST(NgramModel, RejectsOutOfRangeToken) {
  NgramModel m(3);
  EXPECT_THROW(m.observe(std::vector<int>{0, 3}), util::PreconditionError);
}

TEST(NgramModel, TotalEventsGrow) {
  NgramModel m(3, NgramConfig{.order = 2});
  EXPECT_EQ(m.total_events(), 0);
  m.observe(std::vector<int>{0, 1, 2});
  EXPECT_GT(m.total_events(), 0);
}

// --- transformer -------------------------------------------------------------

TransformerConfig tiny_config(int vocab = 5) {
  return TransformerConfig{.vocab_size = vocab,
                           .d_model = 16,
                           .n_layers = 2,
                           .n_heads = 2,
                           .d_ff = 24,
                           .max_seq = 12};
}

TEST(Transformer, ShapesAndDeterminism) {
  util::Rng rng(7);
  const Transformer m(tiny_config(), rng);
  EXPECT_GT(m.num_parameters(), 1000u);
  const std::vector<int> ctx{0, 1, 2};
  const auto a = m.logits(ctx);
  const auto b = m.logits(ctx);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a, b) << "inference must be deterministic";
}

TEST(Transformer, EmptyContextGivesUnconditionalLogits) {
  util::Rng rng(8);
  const Transformer m(tiny_config(), rng);
  const auto l = m.logits({});
  ASSERT_EQ(l.size(), 5u);
  for (const float v : l) EXPECT_TRUE(std::isfinite(v));
}

TEST(Transformer, ContextIsTruncatedToWindow) {
  util::Rng rng(9);
  const Transformer m(tiny_config(), rng);
  std::vector<int> long_ctx(50, 1);
  EXPECT_NO_THROW(m.logits(long_ctx));
}

TEST(Transformer, RejectsBadConfig) {
  util::Rng rng(1);
  EXPECT_THROW(Transformer(TransformerConfig{.vocab_size = 0}, rng),
               util::PreconditionError);
  EXPECT_THROW(Transformer(TransformerConfig{.vocab_size = 4,
                                             .d_model = 10,
                                             .n_heads = 3},
                           rng),
               util::PreconditionError);
}

TEST(Transformer, RejectsOutOfRangeContextToken) {
  util::Rng rng(1);
  const Transformer m(tiny_config(), rng);
  EXPECT_THROW(m.logits(std::vector<int>{99}), util::PreconditionError);
}

TEST(Transformer, ParameterRoundTrip) {
  util::Rng rng(10);
  Transformer m(tiny_config(), rng);
  const auto flat = m.parameters_flat();
  std::vector<float> doubled = flat;
  for (float& v : doubled) v *= 2.0f;
  m.set_parameters_flat(doubled);
  EXPECT_EQ(m.parameters_flat(), doubled);
  EXPECT_THROW(m.set_parameters_flat(std::vector<float>{1.0f}),
               util::PreconditionError);
}

// The decisive test for hand-written backprop: analytic gradients must match
// central finite differences on a random subset of parameters.
TEST(Transformer, GradientMatchesFiniteDifference) {
  util::Rng rng(11);
  Transformer m(tiny_config(4), rng);
  const std::vector<std::vector<int>> rows{{0, 1, 2, 3, 1, 0},
                                           {3, 2, 1, 0, 2}};

  const auto [loss0, grad] = m.loss_and_gradient(rows);
  EXPECT_TRUE(std::isfinite(loss0));
  auto flat = m.parameters_flat();
  ASSERT_EQ(flat.size(), grad.size());

  util::Rng pick(12);
  constexpr double kEps = 1e-3;
  int checked = 0;
  double worst = 0.0;
  while (checked < 60) {
    const auto i = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(flat.size()) - 1));
    const float saved = flat[i];

    flat[i] = saved + static_cast<float>(kEps);
    m.set_parameters_flat(flat);
    const double lp = m.loss_and_gradient(rows).first;
    flat[i] = saved - static_cast<float>(kEps);
    m.set_parameters_flat(flat);
    const double lm = m.loss_and_gradient(rows).first;
    flat[i] = saved;
    m.set_parameters_flat(flat);

    const double numeric = (lp - lm) / (2 * kEps);
    const double analytic = static_cast<double>(grad[i]);
    // Skip near-zero coordinates: the loss is float32, so the central
    // difference carries ~1e-7/eps ≈ 1e-4 absolute noise.
    if (std::abs(numeric) < 2e-3 && std::abs(analytic) < 2e-3) {
      ++checked;
      continue;
    }
    const double rel = std::abs(numeric - analytic) /
                       std::max({std::abs(numeric), std::abs(analytic), 1e-4});
    worst = std::max(worst, rel);
    EXPECT_LT(rel, 0.08) << "param " << i << ": analytic " << analytic
                         << " vs numeric " << numeric;
    ++checked;
  }
  // The typical case should be far tighter than the per-coordinate bound.
  EXPECT_LT(worst, 0.08);
}

TEST(Transformer, KvCacheMatchesColdForward) {
  util::Rng rng(19);
  const Transformer m(tiny_config(6), rng);
  util::Rng ctx_rng(20);
  // Grow a context token by token (the decoder's access pattern), and
  // interleave unrelated contexts to force cache resets; every answer must
  // match a freshly-constructed model's cold forward pass.
  const Transformer cold(tiny_config(6), rng);  // different weights — not used
  std::vector<int> ctx;
  for (int step = 0; step < 20; ++step) {
    ctx.push_back(static_cast<int>(ctx_rng.uniform_int(0, 5)));
    const auto warm = m.logits(ctx);
    // Cold pass: same model, cache invalidated by querying a disjoint
    // context first.
    std::vector<int> other(3, 0);
    (void)m.logits(other);
    const auto recomputed = m.logits(ctx);
    ASSERT_EQ(warm.size(), recomputed.size());
    for (std::size_t i = 0; i < warm.size(); ++i)
      EXPECT_NEAR(warm[i], recomputed[i], 1e-4f) << "step " << step;
  }
}

TEST(Transformer, DecodePathAgreesWithTrainingPath) {
  // The KV-cached decode path and the batched training forward are separate
  // implementations; cross-check them through the loss: for a one-token row
  // {t}, evaluate() returns the cross-entropy of the unconditional logits at
  // target t, which must match -log softmax(logits({}))[t].
  util::Rng rng(21);
  Transformer m(tiny_config(5), rng);
  const auto logits = m.logits({});
  double maxv = -1e30;
  for (const float l : logits) maxv = std::max(maxv, static_cast<double>(l));
  double total = 0;
  for (const float l : logits) total += std::exp(static_cast<double>(l) - maxv);
  for (int t = 0; t < 5; ++t) {
    const std::vector<std::vector<int>> rows{{t}};
    const double expected =
        -(static_cast<double>(logits[static_cast<std::size_t>(t)]) - maxv -
          std::log(total));
    EXPECT_NEAR(m.evaluate(rows), expected, 1e-4) << "target " << t;
  }
}

TEST(Transformer, TrainingReducesLossOnTinyCorpus) {
  util::Rng rng(13);
  Transformer m(tiny_config(4), rng);
  // A strongly patterned corpus the model should memorize quickly.
  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 8; ++i) rows.push_back({0, 1, 2, 3, 0, 1, 2, 3});

  const float before = m.evaluate(rows);
  util::Rng train_rng(14);
  const TrainConfig cfg{.steps = 60,
                        .batch_size = 4,
                        .adam = AdamConfig{.lr = 1e-2f},
                        .warmup_steps = 5};
  const TrainReport report = train_lm(m, rows, cfg, train_rng);
  const float after = m.evaluate(rows);
  EXPECT_LT(after, before * 0.6f)
      << "loss " << before << " -> " << after << " (report last "
      << report.final_loss << ")";
}

TEST(Transformer, SaveLoadRoundTrip) {
  util::Rng rng(22);
  const Transformer original(tiny_config(6), rng);
  const std::string path = ::testing::TempDir() + "lejit_ckpt_test.bin";
  original.save(path);
  const Transformer loaded = Transformer::load(path);
  EXPECT_EQ(loaded.config().d_model, original.config().d_model);
  EXPECT_EQ(loaded.parameters_flat(), original.parameters_flat());
  const std::vector<int> ctx{0, 3, 1};
  EXPECT_EQ(loaded.logits(ctx), original.logits(ctx));
}

TEST(Transformer, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "lejit_ckpt_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint at all";
  }
  EXPECT_THROW(Transformer::load(path), util::RuntimeError);
  EXPECT_THROW(Transformer::load("/nonexistent/path.bin"), util::RuntimeError);
}

// --- KV cache + batched decode ------------------------------------------------

TEST(Transformer, CallerCacheMatchesInternalCacheBitExactly) {
  util::Rng rng(23);
  const Transformer m(tiny_config(6), rng);
  KvCache cache;
  // Empty context, short context, and a context past the window limit: the
  // caller-owned-cache overload runs the same kernel as the internal path,
  // so the answers must be bit-identical, not just close.
  for (const auto& ctx : std::vector<std::vector<int>>{
           {}, {0, 1, 2}, {1, 4}, std::vector<int>(30, 2)}) {
    EXPECT_EQ(m.logits(ctx, cache), m.logits(ctx));
  }
}

TEST(Transformer, RewoundContextMatchesColdForward) {
  // Dead-end recovery rewinds the decoder's context: after answering a long
  // context, a query for one of its prefixes must be bit-identical to a
  // cold forward of that prefix (the LCP logic may not serve stale suffix
  // state).
  util::Rng rng(24);
  const Transformer m(tiny_config(6), rng);
  KvCache warm;
  const std::vector<int> full{0, 1, 2, 3, 4, 5, 0, 1};
  (void)m.logits(full, warm);
  for (std::size_t keep = full.size() - 1; keep > 0; --keep) {
    const std::vector<int> rewound(full.begin(),
                                   full.begin() + static_cast<long>(keep));
    KvCache fresh;
    EXPECT_EQ(m.logits(rewound, warm), m.logits(rewound, fresh))
        << "rewound to " << keep << " tokens";
  }
}

TEST(Transformer, BatchedLogitsBitIdenticalToSequential) {
  util::Rng rng(25);
  const Transformer m(tiny_config(6), rng);
  const std::vector<std::vector<int>> contexts{
      {}, {3}, {0, 1, 2, 3}, {5, 5, 1, 0, 2, 4, 3}, std::vector<int>(20, 1)};

  std::vector<KvCache> batch_caches(contexts.size());
  std::vector<KvCache*> cache_ptrs;
  for (auto& c : batch_caches) cache_ptrs.push_back(&c);
  const auto batched = m.logits_batch(contexts, cache_ptrs);

  ASSERT_EQ(batched.size(), contexts.size());
  for (std::size_t s = 0; s < contexts.size(); ++s) {
    KvCache fresh;
    EXPECT_EQ(batched[s], m.logits(contexts[s], fresh)) << "session " << s;
    EXPECT_EQ(batched[s], m.logits(contexts[s])) << "session " << s;
  }
}

TEST(Transformer, BatchedGrowingSessionsStayBitIdentical) {
  // The serve access pattern: sessions grow token by token at different
  // rates, cross the window limit, and keep their own caches. Every step of
  // every session must match a sequential reference decode bit for bit.
  util::Rng rng(26);
  const Transformer m(tiny_config(6), rng);
  constexpr std::size_t kSessions = 3;

  std::vector<std::vector<int>> ctxs(kSessions);
  std::vector<KvCache> batch_caches(kSessions), ref_caches(kSessions);
  std::vector<KvCache*> cache_ptrs;
  for (auto& c : batch_caches) cache_ptrs.push_back(&c);

  util::Rng toks(27);
  for (int step = 0; step < 18; ++step) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      // Session s grows every (s+1)-th step — sessions desynchronize, so the
      // batch mixes different context lengths and cache states.
      if (step % static_cast<int>(s + 1) == 0)
        ctxs[s].push_back(static_cast<int>(toks.uniform_int(0, 5)));
    }
    const auto batched = m.logits_batch(ctxs, cache_ptrs);
    for (std::size_t s = 0; s < kSessions; ++s)
      EXPECT_EQ(batched[s], m.logits(ctxs[s], ref_caches[s]))
          << "step " << step << " session " << s;
  }
}

TEST(Transformer, BatchedLogitsValidatesArguments) {
  util::Rng rng(28);
  const Transformer m(tiny_config(4), rng);
  KvCache a, b;
  const std::vector<std::vector<int>> two{{0}, {1}};
  const std::vector<std::vector<int>> none;

  std::vector<KvCache*> one_cache{&a};
  EXPECT_THROW(m.logits_batch(two, one_cache), util::PreconditionError);
  std::vector<KvCache*> empty_caches;
  EXPECT_THROW(m.logits_batch(none, empty_caches), util::PreconditionError);
  std::vector<KvCache*> with_null{&a, nullptr};
  EXPECT_THROW(m.logits_batch(two, with_null), util::PreconditionError);
  std::vector<KvCache*> duplicated{&a, &a};
  EXPECT_THROW(m.logits_batch(two, duplicated), util::PreconditionError);
  std::vector<KvCache*> distinct{&a, &b};
  EXPECT_NO_THROW(m.logits_batch(two, distinct));
}

TEST(Transformer, KvCacheRejectsForeignModelShape) {
  util::Rng rng(29);
  const Transformer small(tiny_config(4), rng);
  const Transformer big(
      TransformerConfig{.vocab_size = 4, .d_model = 32, .n_layers = 1,
                        .n_heads = 2, .d_ff = 24, .max_seq = 12},
      rng);
  KvCache cache;
  (void)small.logits(std::vector<int>{0, 1}, cache);
  EXPECT_THROW(big.logits(std::vector<int>{0, 1}, cache),
               util::PreconditionError);
}

// Pins the KV-cache efficiency contract (lm.kv.* counters): below the window
// limit every step reuses the full cached prefix and recomputes exactly one
// token; past the limit the sliding window shifts every step, the common
// prefix collapses to the START token, and each step reprocesses the whole
// max_seq-1 window — the documented O(ctx²) post-window regime.
TEST(Transformer, KvCountersPinFullPrefixReuseAndWindowCliff) {
  util::Rng rng(30);
  const int max_seq = tiny_config().max_seq;  // 12
  const Transformer m(tiny_config(6), rng);

  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  auto& reused = registry.counter("lm.kv.reused_tokens");
  auto& recomputed = registry.counter("lm.kv.recomputed_tokens");

  KvCache cache;
  std::vector<int> ctx;
  // Non-repeating window content (period 6 > shift 1), so a shifted window
  // never accidentally matches the cached one.
  for (int step = 0; step < 30; ++step) {
    ctx.push_back(step % 6);
    const std::int64_t reused_before = reused.value();
    const std::int64_t recomputed_before = recomputed.value();
    (void)m.logits(ctx, cache);
    const std::int64_t dr = reused.value() - reused_before;
    const std::int64_t dc = recomputed.value() - recomputed_before;
    if (static_cast<int>(ctx.size()) == 1) {
      // Cold cache: START + first token both recomputed.
      EXPECT_EQ(dr, 0) << "step " << step;
      EXPECT_EQ(dc, 2) << "step " << step;
    } else if (static_cast<int>(ctx.size()) < max_seq) {
      // Below the window: full prefix reuse, exactly one token recomputed.
      EXPECT_EQ(dr, static_cast<std::int64_t>(ctx.size())) << "step " << step;
      EXPECT_EQ(dc, 1) << "step " << step;
    } else {
      // Past the window: only START survives the shift; the whole window is
      // reprocessed.
      EXPECT_EQ(dr, 1) << "step " << step;
      EXPECT_EQ(dc, max_seq - 1) << "step " << step;
    }
  }
  obs::set_metrics_enabled(false);
}

TEST(TransformerSession, ConcurrentViewsMatchSharedModel) {
  // TransformerSession is the per-thread view the serve runtime hands out:
  // interleaved sessions over one shared model must each behave exactly like
  // the model queried alone.
  util::Rng rng(31);
  const Transformer m(tiny_config(6), rng);
  TransformerSession s1(m), s2(m);
  EXPECT_EQ(s1.vocab_size(), m.vocab_size());

  std::vector<int> c1, c2{5, 4, 3};
  for (int step = 0; step < 10; ++step) {
    c1.push_back(step % 6);
    c2.push_back((5 - step % 6) % 6);
    KvCache f1, f2;
    EXPECT_EQ(s1.logits(c1), m.logits(c1, f1)) << "step " << step;
    EXPECT_EQ(s2.logits(c2), m.logits(c2, f2)) << "step " << step;
  }
}

// --- inference forward: golden bits and kernels ------------------------------

// A perfbench-shaped model (DESIGN.md §13.3): the telemetry row vocabulary,
// d_model 64, 2 layers, 4 heads, d_ff 128, max_seq 64. Seeded random init,
// then every parameter perturbed so biases and LayerNorm gains are not the
// trivial 0 and 1.
Transformer golden_model() {
  util::Rng rng(41);
  Transformer m(TransformerConfig{.vocab_size = 19, .d_model = 64,
                                  .n_layers = 2, .n_heads = 4, .d_ff = 128,
                                  .max_seq = 64},
                rng);
  std::vector<float> flat = m.parameters_flat();
  util::Rng noise(42);
  for (float& v : flat) v += static_cast<float>(noise.normal(0.0, 0.1));
  m.set_parameters_flat(flat);
  return m;
}

// Cold-cache logits of golden_model() after contexts of 0, 1, 7, 24, 63 and
// 80 tokens (the last two at and past the max_seq-1 window), as float bit
// patterns. Captured from the per-position forward this one replaced, so
// they pin that the row-blocked forward kept every output bit.
struct GoldenLogits {
  int tokens;
  std::vector<std::uint32_t> bits;
};
const std::vector<GoldenLogits>& golden_logits() {
  static const std::vector<GoldenLogits> g{
      {0,
       {0xbf689223, 0xbf35bda2, 0x3ff48660, 0xbf48b2fb, 0xbd934f74,
        0x3dc3f846, 0x3fb84068, 0x3f93eda1, 0xbda18083, 0x3fda88ab,
        0x3ddfc700, 0x3f85e891, 0xbebabc28, 0xbf966a67, 0xbeeed55b,
        0xbeaf1071, 0x3f0e81fc, 0x3dabb42c, 0xbf6109cd}},
      {1,
       {0xbee1c286, 0xbe9105e2, 0x3fe7edaf, 0x3ef34ac8, 0xbf263a05,
        0xbf049ea6, 0x3f4f7934, 0x3eed9a0c, 0xbe0ee6a6, 0x3f5f4424,
        0xbe0ebe80, 0x3dce43cc, 0xbf62d1b0, 0xbf48f2fa, 0x3ef6c847,
        0xbf293491, 0xbedf27f2, 0x3e3987d3, 0xbfa14762}},
      {7,
       {0xbeae61b9, 0x37e1d000, 0x3f5b0eeb, 0x3fd64e18, 0xbd88a986,
        0x3f319147, 0xbe364f24, 0x3f2be793, 0xbf9f340f, 0x3c86eada,
        0x3dcc10d4, 0x3f26acdf, 0xbfa04452, 0xbf8a9bf8, 0x3ec6e7c6,
        0xbe006605, 0xbeb12266, 0x3d6965db, 0x3b037600}},
      {24,
       {0xbf951cc8, 0x3dca8f8f, 0x3f87413e, 0x3e5b901e, 0x3ea36335,
        0x3f1a13ee, 0x3fcdb05c, 0x400e4470, 0xbe943ed2, 0x3f76d629,
        0x3f91c1dd, 0x3f24a72e, 0xbf20b1e7, 0xbff81713, 0xbf3e5e17,
        0xbf0abc3e, 0x3f1c3633, 0x3b8e0a40, 0xbea78c8b}},
      {63,
       {0xbf80b88b, 0x3f9a44fa, 0x3fae4a9d, 0x3dde9538, 0x3eaf05b0,
        0x3e2789d4, 0x3fb2127e, 0x3f0f5182, 0xbee78491, 0x3de632f8,
        0x3ec62343, 0xbf19c998, 0xbf6e0630, 0xbf723b04, 0xbdaee511,
        0xbfc7a908, 0x3fbdcc03, 0xbf1d991d, 0x3c9948d8}},
      {80,
       {0xbf787007, 0x3f5b514c, 0x3fdb8082, 0x3f423899, 0x3e619a9a,
        0x3f0d4a01, 0x3fc1ead0, 0x3f315f04, 0xbfc9469d, 0x3edf1cb2,
        0x3f268d77, 0x3efb2373, 0xbfa1996c, 0xbfce7bb5, 0xbea3c89a,
        0xbfa76d2e, 0x3efd3b7a, 0xbe254c1e, 0x3e8612b6}},
  };
  return g;
}

void expect_golden_logits(detail::Isa isa) {
  const Transformer m = golden_model();
  util::Rng toks(43);
  for (const GoldenLogits& g : golden_logits()) {
    std::vector<int> ctx;
    for (int i = 0; i < g.tokens; ++i)
      ctx.push_back(static_cast<int>(toks.uniform_int(0, 18)));
    KvCache cache;
    KvCache* const caches[] = {&cache};
    const std::vector<std::vector<int>> contexts{ctx};
    const auto out = detail::ForwardAccess::logits(m, contexts, caches, isa);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].size(), g.bits.size());
    for (std::size_t i = 0; i < g.bits.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[0][i]), g.bits[i])
          << g.tokens << " tokens, logit " << i;
    EXPECT_EQ(out[0], m.logits(ctx)) << g.tokens << " tokens";
  }
}

TEST(TransformerForward, GenericPathKeepsGoldenLogits) {
  expect_golden_logits(detail::Isa::kGeneric);
}

TEST(TransformerForward, Avx2PathKeepsGoldenLogits) {
  if (!detail::isa_supported(detail::Isa::kAvx2))
    GTEST_SKIP() << "this CPU has no AVX2";
  expect_golden_logits(detail::Isa::kAvx2);
}

// Both matmul kernels against the scalar per-element contract: bias first,
// ascending i, exact-zero inputs skipped, multiply then add. Covers every
// row count up to two 4-row tiles plus a ragged one, widths that are not a
// multiple of either vector width, +0/-0 inputs, and -0 biases whose rows
// see only zero inputs (adding a 0·w product would turn them into +0).
TEST(TransformerForward, MatmulKernelsMatchScalarContract) {
  util::Rng rng(44);
  const auto value = [&rng] {
    switch (rng.uniform_int(0, 5)) {
      case 0: return 0.0f;
      case 1: return -0.0f;
      default: return static_cast<float>(rng.normal(0.0, 1.0));
    }
  };
  for (const detail::Isa isa : {detail::Isa::kGeneric, detail::Isa::kAvx2}) {
    if (!detail::isa_supported(isa)) continue;
    for (const auto& [m, n] : {std::pair{1, 1}, {3, 5}, {7, 9}, {13, 17},
                              {64, 19}, {64, 192}, {16, 33}}) {
      for (int rows = 1; rows <= 9; ++rows) {
        std::vector<float> x(static_cast<std::size_t>(rows * m));
        std::vector<float> w(static_cast<std::size_t>(m * n));
        std::vector<float> b(static_cast<std::size_t>(n));
        for (float& v : x) v = value();
        for (float& v : w) v = value();
        for (float& v : b) v = value();
        // The last row sees only zeros: its outputs must be its biases,
        // sign of zero included.
        std::fill(x.end() - m, x.end(), 0.0f);
        std::vector<float> out(static_cast<std::size_t>(rows * n), 1.0f);
        detail::matmul_rows(isa, x.data(), rows, m, w.data(), b.data(), n,
                            out.data());
        for (int r = 0; r < rows; ++r) {
          for (int j = 0; j < n; ++j) {
            float acc = b[static_cast<std::size_t>(j)];
            for (int i = 0; i < m; ++i) {
              const float xi = x[static_cast<std::size_t>(r * m + i)];
              if (xi == 0.0f) continue;
              acc += xi * w[static_cast<std::size_t>(i * n + j)];
            }
            EXPECT_EQ(std::bit_cast<std::uint32_t>(
                          out[static_cast<std::size_t>(r * n + j)]),
                      std::bit_cast<std::uint32_t>(acc))
                << "isa " << static_cast<int>(isa) << " m " << m << " n " << n
                << " rows " << rows << " at " << r << "," << j;
          }
        }
      }
    }
  }
}

// lm.transformer.positions records the positions each forward computes:
// the whole START-prefixed context cold, one per step warm, and the sum
// over sessions for a batch.
TEST(TransformerForward, PositionsHistogramRecordsRowsPerForward) {
  util::Rng rng(45);
  const Transformer m(tiny_config(6), rng);
  obs::set_metrics_enabled(true);
  auto& h = obs::MetricsRegistry::instance().histogram(
      "lm.transformer.positions");
  const std::int64_t count0 = h.count();
  const double sum0 = h.sum();
  KvCache a, b;
  (void)m.logits(std::vector<int>{1, 2, 3}, a);     // cold: 4 positions
  (void)m.logits(std::vector<int>{1, 2, 3, 4}, a);  // warm: 1 position
  KvCache* const caches[] = {&a, &b};
  const std::vector<std::vector<int>> contexts{{1, 2, 3, 4, 5}, {0}};
  (void)m.logits_batch(contexts, caches);  // 1 + 2 positions
  EXPECT_EQ(h.count() - count0, 3);
  EXPECT_EQ(h.sum() - sum0, 8.0);
  obs::set_metrics_enabled(false);
}

TEST(Trainer, LogsWhenRequested) {
  util::Rng rng(15);
  Transformer m(tiny_config(3), rng);
  const std::vector<std::vector<int>> rows{{0, 1, 2}, {2, 1, 0}};
  int calls = 0;
  util::Rng train_rng(16);
  train_lm(m, rows,
           TrainConfig{.steps = 10, .batch_size = 2, .log_every = 2},
           train_rng, [&](int, float) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(Trainer, RejectsEmptyCorpus) {
  util::Rng rng(17);
  Transformer m(tiny_config(3), rng);
  util::Rng train_rng(18);
  EXPECT_THROW(train_lm(m, {}, TrainConfig{}, train_rng),
               util::PreconditionError);
}

}  // namespace
}  // namespace lejit::lm
