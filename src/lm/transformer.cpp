#include "lm/transformer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numbers>
#include <thread>

#include "fault/fault.hpp"
#include "lm/forward.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/error.hpp"

namespace lejit::lm {

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

float gelu(float x) {
  const float t = kGeluC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(t));
}

float gelu_grad(float x) {
  const float t = kGeluC * (x + 0.044715f * x * x * x);
  const float th = std::tanh(t);
  const float sech2 = 1.0f - th * th;
  return 0.5f * (1.0f + th) +
         0.5f * x * sech2 * kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
}

// One trainable tensor with its gradient and AdamW state.
struct Param {
  Mat w, g, m, v;
  bool decay = true;

  void init(int rows, int cols, bool use_decay) {
    w = Mat(rows, cols);
    g = Mat(rows, cols);
    m = Mat(rows, cols);
    v = Mat(rows, cols);
    decay = use_decay;
  }
};

// LayerNorm forward over rows of x; caches xhat and rstd for backward.
struct LnCache {
  Mat xhat;
  std::vector<float> rstd;
};

void ln_forward(const Mat& x, const Param& gamma, const Param& beta, Mat& out,
                LnCache& cache) {
  const int s = x.rows, d = x.cols;
  if (out.rows != s || out.cols != d) out = Mat(s, d);
  cache.xhat = Mat(s, d);
  cache.rstd.assign(static_cast<std::size_t>(s), 0.0f);
  for (int t = 0; t < s; ++t) {
    const float* xt = x.row(t);
    float mean = 0.0f;
    for (int i = 0; i < d; ++i) mean += xt[i];
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (int i = 0; i < d; ++i) {
      const float c = xt[i] - mean;
      var += c * c;
    }
    var /= static_cast<float>(d);
    const float rstd = 1.0f / std::sqrt(var + 1e-5f);
    cache.rstd[static_cast<std::size_t>(t)] = rstd;
    float* xh = cache.xhat.row(t);
    float* ot = out.row(t);
    for (int i = 0; i < d; ++i) {
      xh[i] = (xt[i] - mean) * rstd;
      ot[i] = xh[i] * gamma.w.data[static_cast<std::size_t>(i)] +
              beta.w.data[static_cast<std::size_t>(i)];
    }
  }
}

// dx += backward of LayerNorm given dout; accumulates dgamma/dbeta.
void ln_backward(const Mat& dout, const LnCache& cache, Param& gamma,
                 Param& beta, Mat& dx) {
  const int s = dout.rows, d = dout.cols;
  for (int t = 0; t < s; ++t) {
    const float* dot_ = dout.row(t);
    const float* xh = cache.xhat.row(t);
    const float rstd = cache.rstd[static_cast<std::size_t>(t)];
    float sum_dxhat = 0.0f, sum_dxhat_xhat = 0.0f;
    for (int i = 0; i < d; ++i) {
      const float dxh = dot_[i] * gamma.w.data[static_cast<std::size_t>(i)];
      sum_dxhat += dxh;
      sum_dxhat_xhat += dxh * xh[i];
      gamma.g.data[static_cast<std::size_t>(i)] += dot_[i] * xh[i];
      beta.g.data[static_cast<std::size_t>(i)] += dot_[i];
    }
    const float inv_d = 1.0f / static_cast<float>(d);
    float* dxt = dx.row(t);
    for (int i = 0; i < d; ++i) {
      const float dxh = dot_[i] * gamma.w.data[static_cast<std::size_t>(i)];
      dxt[i] += rstd * (dxh - inv_d * sum_dxhat - xh[i] * inv_d * sum_dxhat_xhat);
    }
  }
}

void add_bias(Mat& x, const Param& b) {
  for (int t = 0; t < x.rows; ++t) {
    float* xt = x.row(t);
    for (int i = 0; i < x.cols; ++i)
      xt[i] += b.w.data[static_cast<std::size_t>(i)];
  }
}

void bias_grad(const Mat& dout, Param& b) {
  for (int t = 0; t < dout.rows; ++t) {
    const float* dt = dout.row(t);
    for (int i = 0; i < dout.cols; ++i)
      b.g.data[static_cast<std::size_t>(i)] += dt[i];
  }
}

struct LayerParams {
  Param ln1_g, ln1_b, w_qkv, b_qkv, w_o, b_o;
  Param ln2_g, ln2_b, w_fc1, b_fc1, w_fc2, b_fc2;
};

// Activations cached during forward for one sequence.
struct LayerCache {
  Mat x_in;      // layer input
  LnCache ln1;
  Mat ln1_out;
  Mat qkv;
  std::vector<Mat> att;  // per head, S×S row-softmaxed attention
  Mat ctx;
  Mat x_mid;     // after attention residual
  LnCache ln2;
  Mat ln2_out;
  Mat fc1_pre;   // before GELU
  Mat fc1_act;
};

struct ForwardCache {
  std::vector<int> ids;  // START-prefixed input ids
  Mat x0;
  std::vector<LayerCache> layers;
  LnCache lnf;
  Mat lnf_out;
  Mat logits;
};

// --- inference kernels (DESIGN.md §13.3): always inlined into Impl::sweep_* --

using F32x4 = float __attribute__((vector_size(16)));
using F32x8 = float __attribute__((vector_size(32)));

// Rows [0, R) × columns [j, j + C·lanes(V)) of out = b + x·W (V is plain
// float for ragged columns). Each element starts from its bias and adds
// x[r][i]·w[i][j] for ascending i, skipping exact-zero inputs, as a multiply
// then an add: the same float operations however rows and columns are tiled.
template <int R, int C, class V>
[[gnu::always_inline]] inline void matmul_tile(const float* x, int m,
                                               const float* w, const float* b,
                                               int n, float* out, int j) {
  constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(float));
  // Fully unrolled, so the R·C accumulators stay in registers.
  V acc[R * C];
#pragma GCC unroll 8
  for (int k = 0; k < R * C; ++k)
    std::memcpy(&acc[k], b + j + k % C * kLanes, sizeof(V));
  for (int i = 0; i < m; ++i) {
    V wv[C];
    for (int c = 0; c < C; ++c)
      std::memcpy(&wv[c], w + i * n + j + c * kLanes, sizeof(V));
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float xi = x[r * m + i];
      if (xi == 0.0f) continue;
      for (int c = 0; c < C; ++c) acc[r * C + c] += xi * wv[c];
    }
  }
#pragma GCC unroll 8
  for (int k = 0; k < R * C; ++k)
    std::memcpy(out + k / C * n + j + k % C * kLanes, &acc[k], sizeof(V));
}

// Rows [0, R) of out = b + x·W: 2-vector tiles, then scalar columns.
template <int R, class V>
[[gnu::always_inline]] inline void matmul_block(const float* x, int m,
                                                const float* w, const float* b,
                                                int n, float* out) {
  constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(float));
  int j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes)
    matmul_tile<R, 2, V>(x, m, w, b, n, out, j);
  for (; j < n; ++j) matmul_tile<R, 1, float>(x, m, w, b, n, out, j);
}

// out (rows×n) = b + x (rows×m) · w (m×n), in 4-row × 2-vector tiles.
template <class V>
[[gnu::always_inline]] inline void tiled_matmul(const float* x, int rows, int m,
                                                const float* w, const float* b,
                                                int n, float* out) {
  int r = 0;
  for (; r + 4 <= rows; r += 4)
    matmul_block<4, V>(x + r * m, m, w, b, n, out + r * n);
  for (; r < rows; ++r) matmul_block<1, V>(x + r * m, m, w, b, n, out + r * n);
}

// LayerNorm of one d-vector.
[[gnu::always_inline]] inline void ln_vec(const float* x, const Param& gamma,
                                          const Param& beta, int d,
                                          float* out) {
  float mean = 0.0f;
  for (int i = 0; i < d; ++i) mean += x[i];
  mean /= static_cast<float>(d);
  float var = 0.0f;
  for (int i = 0; i < d; ++i) {
    const float c = x[i] - mean;
    var += c * c;
  }
  const float rstd = 1.0f / std::sqrt(var / static_cast<float>(d) + 1e-5f);
  for (int i = 0; i < d; ++i)
    out[i] = (x[i] - mean) * rstd * gamma.w.data[static_cast<std::size_t>(i)] +
             beta.w.data[static_cast<std::size_t>(i)];
}

// Causal attention of the query row `q` at position t over cache rows 0..t,
// head by head; `att` is t+1 floats of scratch, `ctx` the nh·dh output.
[[gnu::always_inline]] inline void attend(const float* q, const Mat& kc,
                                          const Mat& vc, int t, int nh, int dh,
                                          float scale, float* att, float* ctx) {
  std::fill(ctx, ctx + nh * dh, 0.0f);
  for (int h = 0; h < nh; ++h) {
    const int off = h * dh;
    float maxv = -1e30f;
    for (int u = 0; u <= t; ++u) {
      const float* ku = kc.row(u) + off;
      float acc = 0.0f;
      for (int i = 0; i < dh; ++i) acc += q[off + i] * ku[i];
      att[u] = acc * scale;
      maxv = std::max(maxv, att[u]);
    }
    float total = 0.0f;
    for (int u = 0; u <= t; ++u) {
      att[u] = std::exp(att[u] - maxv);
      total += att[u];
    }
    const float inv = 1.0f / total;
    float* ch = ctx + off;
    for (int u = 0; u <= t; ++u) {
      const float a = att[u] * inv;
      const float* vu = vc.row(u) + off;
      for (int i = 0; i < dh; ++i) ch[i] += a * vu[i];
    }
  }
}

// Per-thread inference scratch, kept across forwards. Per row: x residual
// stream, a LayerNorm output then attention context, big QKV then MLP hidden
// layer, tmp a residual branch. Rows go by session, positions ascending.
struct Workspace {
  std::vector<float> x, a, big, tmp, att;
  std::vector<int> session, pos;  // per row
};

}  // namespace

struct Transformer::Impl {
  TransformerConfig cfg;
  Param tok_emb;  // (vocab+1, d): row vocab is the internal START token
  Param pos_emb;  // (max_seq, d)
  std::vector<LayerParams> layers;
  Param lnf_g, lnf_b, w_out, b_out;
  std::int64_t adam_t = 0;

  // KV cache backing the plain logits() path. Mutable because it is
  // semantically invisible: logits match a cold forward pass exactly.
  mutable KvCache cache;
  // Reentrancy guard for that internal cache: 0 when unowned, otherwise a
  // nonzero fingerprint of the thread currently inside logits().
  mutable std::atomic<std::uint64_t> logits_owner{0};

  void invalidate_cache() const { cache.clear(); }

  // Lazily size a cache for this model and reject caches shaped for another.
  void ensure_cache_shape(KvCache& kv) const;

  // The inference forward (DESIGN.md §13.3): every session's positions past
  // its cached common prefix run through each layer together as one list of
  // rows. Returns the logits at each session's last position.
  using Logits = std::vector<std::vector<float>>;
  Logits forward_rows(std::span<const std::vector<int>> ids,
                      std::span<KvCache* const> caches, detail::Isa isa) const;

  // logits() through `kv`, with the per-forward metrics.
  std::vector<float> logits_one(std::span<const int> context,
                                KvCache& kv) const;
  // logits_batch() through the `isa` copy of the forward.
  Logits logits_batch(std::span<const std::vector<int>> contexts,
                      std::span<KvCache* const> caches, detail::Isa isa) const;

  // The arithmetic of forward_rows over the rows listed in `ws`, compiled
  // once per instruction set.
  template <class V>
  [[gnu::always_inline]] inline void sweep(
      Workspace& ws, std::span<const std::vector<int>> ids,
      std::span<KvCache* const> caches, Logits& out) const {
    const int d = cfg.d_model, nh = cfg.n_heads, dh = d / nh, f = cfg.d_ff;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    const int n = static_cast<int>(ws.pos.size());
    float *x = ws.x.data(), *norm = ws.a.data(), *ctx = ws.a.data(),
          *qkv = ws.big.data(), *ff = ws.big.data(), *tmp = ws.tmp.data();
    for (int r = 0; r < n; ++r) {
      const float* e = tok_emb.w.row(ids[ws.session[r]][ws.pos[r]]);
      const float* p = pos_emb.w.row(ws.pos[r]);
      for (int i = 0; i < d; ++i) x[r * d + i] = e[i] + p[i];
    }
    for (std::size_t li = 0; li < layers.size(); ++li) {
      const LayerParams& lp = layers[li];
      for (int r = 0; r < n; ++r)
        ln_vec(x + r * d, lp.ln1_g, lp.ln1_b, d, norm + r * d);
      tiled_matmul<V>(norm, n, d, lp.w_qkv.w.data.data(),
                      lp.b_qkv.w.data.data(), 3 * d, qkv);
      // Append each row's K/V, then attend: a row reads only its own
      // session's rows at or before it, all appended by then.
      for (int r = 0; r < n; ++r) {
        KvCache& kv = *caches[ws.session[r]];
        const float* qr = qkv + r * 3 * d;
        std::copy(qr + d, qr + 2 * d, kv.k[li].row(ws.pos[r]));
        std::copy(qr + 2 * d, qr + 3 * d, kv.v[li].row(ws.pos[r]));
        attend(qr, kv.k[li], kv.v[li], ws.pos[r], nh, dh, scale,
               ws.att.data(), ctx + r * d);
      }
      tiled_matmul<V>(ctx, n, d, lp.w_o.w.data.data(), lp.b_o.w.data.data(),
                      d, tmp);
      for (int i = 0; i < n * d; ++i) x[i] += tmp[i];
      for (int r = 0; r < n; ++r)
        ln_vec(x + r * d, lp.ln2_g, lp.ln2_b, d, norm + r * d);
      tiled_matmul<V>(norm, n, d, lp.w_fc1.w.data.data(),
                      lp.b_fc1.w.data.data(), f, ff);
      for (int i = 0; i < n * f; ++i) ff[i] = gelu(ff[i]);
      tiled_matmul<V>(ff, n, f, lp.w_fc2.w.data.data(),
                      lp.b_fc2.w.data.data(), d, tmp);
      for (int i = 0; i < n * d; ++i) x[i] += tmp[i];
    }
    for (int r = 0; r < n; ++r) {  // the head, on each session's last row
      if (r + 1 < n && ws.session[r + 1] == ws.session[r]) continue;
      ln_vec(x + r * d, lnf_g, lnf_b, d, norm);
      tiled_matmul<V>(norm, 1, d, w_out.w.data.data(), b_out.w.data.data(),
                      cfg.vocab_size, out[ws.session[r]].data());
    }
  }

  void sweep_generic(Workspace& ws, std::span<const std::vector<int>> ids,
                     std::span<KvCache* const> caches, Logits& out) const {
    sweep<F32x4>(ws, ids, caches, out);
  }
#if defined(__x86_64__) || defined(__i386__)
  __attribute__((target("avx2"))) void sweep_avx2(
      Workspace& ws, std::span<const std::vector<int>> ids,
      std::span<KvCache* const> caches, Logits& out) const {
    sweep<F32x8>(ws, ids, caches, out);
  }
#endif

  std::vector<Param*> all_params() {
    std::vector<Param*> ps{&tok_emb, &pos_emb, &lnf_g, &lnf_b, &w_out, &b_out};
    for (auto& l : layers) {
      for (Param* p : {&l.ln1_g, &l.ln1_b, &l.w_qkv, &l.b_qkv, &l.w_o, &l.b_o,
                       &l.ln2_g, &l.ln2_b, &l.w_fc1, &l.b_fc1, &l.w_fc2,
                       &l.b_fc2})
        ps.push_back(p);
    }
    return ps;
  }

  void init(util::Rng& rng) {
    const int d = cfg.d_model;
    tok_emb.init(cfg.vocab_size + 1, d, true);
    tok_emb.w.init_normal(rng, 0.02f);
    pos_emb.init(cfg.max_seq, d, true);
    pos_emb.w.init_normal(rng, 0.02f);
    layers.resize(static_cast<std::size_t>(cfg.n_layers));
    const float resid_scale =
        0.02f / std::sqrt(2.0f * static_cast<float>(cfg.n_layers));
    for (auto& l : layers) {
      l.ln1_g.init(1, d, false);
      std::fill(l.ln1_g.w.data.begin(), l.ln1_g.w.data.end(), 1.0f);
      l.ln1_b.init(1, d, false);
      l.w_qkv.init(d, 3 * d, true);
      l.w_qkv.w.init_normal(rng, 0.02f);
      l.b_qkv.init(1, 3 * d, false);
      l.w_o.init(d, d, true);
      l.w_o.w.init_normal(rng, resid_scale);
      l.b_o.init(1, d, false);
      l.ln2_g.init(1, d, false);
      std::fill(l.ln2_g.w.data.begin(), l.ln2_g.w.data.end(), 1.0f);
      l.ln2_b.init(1, d, false);
      l.w_fc1.init(d, cfg.d_ff, true);
      l.w_fc1.w.init_normal(rng, 0.02f);
      l.b_fc1.init(1, cfg.d_ff, false);
      l.w_fc2.init(cfg.d_ff, d, true);
      l.w_fc2.w.init_normal(rng, resid_scale);
      l.b_fc2.init(1, d, false);
    }
    lnf_g.init(1, d, false);
    std::fill(lnf_g.w.data.begin(), lnf_g.w.data.end(), 1.0f);
    lnf_b.init(1, d, false);
    w_out.init(d, cfg.vocab_size, true);
    w_out.w.init_normal(rng, 0.02f);
    b_out.init(1, cfg.vocab_size, false);
  }

  // Forward pass over START-prefixed ids; fills `fc`.
  void forward(const std::vector<int>& ids, ForwardCache& fc) const {
    const int s = static_cast<int>(ids.size());
    const int d = cfg.d_model;
    const int nh = cfg.n_heads;
    const int dh = d / nh;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    fc.ids = ids;
    fc.x0 = Mat(s, d);
    for (int t = 0; t < s; ++t) {
      const float* e =
          tok_emb.w.row(ids[static_cast<std::size_t>(t)]);
      const float* p = pos_emb.w.row(t);
      float* x = fc.x0.row(t);
      for (int i = 0; i < d; ++i) x[i] = e[i] + p[i];
    }

    fc.layers.assign(static_cast<std::size_t>(cfg.n_layers), LayerCache{});
    Mat x = fc.x0;
    Mat tmp;
    for (int li = 0; li < cfg.n_layers; ++li) {
      const LayerParams& lp = layers[static_cast<std::size_t>(li)];
      LayerCache& lc = fc.layers[static_cast<std::size_t>(li)];
      lc.x_in = x;

      ln_forward(x, lp.ln1_g, lp.ln1_b, lc.ln1_out, lc.ln1);
      matmul(lc.ln1_out, lp.w_qkv.w, lc.qkv);
      add_bias(lc.qkv, lp.b_qkv);

      lc.att.assign(static_cast<std::size_t>(nh), Mat(s, s));
      lc.ctx = Mat(s, d);
      for (int h = 0; h < nh; ++h) {
        Mat& att = lc.att[static_cast<std::size_t>(h)];
        const int qo = h * dh, ko = d + h * dh, vo = 2 * d + h * dh;
        for (int t = 0; t < s; ++t) {
          const float* qt = lc.qkv.row(t) + qo;
          float* at = att.row(t);
          float maxv = -1e30f;
          for (int u = 0; u <= t; ++u) {
            const float* ku = lc.qkv.row(u) + ko;
            float acc = 0.0f;
            for (int i = 0; i < dh; ++i) acc += qt[i] * ku[i];
            at[u] = acc * scale;
            maxv = std::max(maxv, at[u]);
          }
          float total = 0.0f;
          for (int u = 0; u <= t; ++u) {
            at[u] = std::exp(at[u] - maxv);
            total += at[u];
          }
          const float inv = 1.0f / total;
          for (int u = 0; u <= t; ++u) at[u] *= inv;
          // Weighted sum of values.
          float* ct = lc.ctx.row(t) + qo;
          for (int u = 0; u <= t; ++u) {
            const float a = at[u];
            const float* vu = lc.qkv.row(u) + vo;
            for (int i = 0; i < dh; ++i) ct[i] += a * vu[i];
          }
        }
      }

      matmul(lc.ctx, lp.w_o.w, tmp);
      add_bias(tmp, lp.b_o);
      lc.x_mid = Mat(s, d);
      for (std::size_t i = 0; i < lc.x_mid.data.size(); ++i)
        lc.x_mid.data[i] = x.data[i] + tmp.data[i];

      ln_forward(lc.x_mid, lp.ln2_g, lp.ln2_b, lc.ln2_out, lc.ln2);
      matmul(lc.ln2_out, lp.w_fc1.w, lc.fc1_pre);
      add_bias(lc.fc1_pre, lp.b_fc1);
      lc.fc1_act = Mat(s, cfg.d_ff);
      for (std::size_t i = 0; i < lc.fc1_act.data.size(); ++i)
        lc.fc1_act.data[i] = gelu(lc.fc1_pre.data[i]);
      matmul(lc.fc1_act, lp.w_fc2.w, tmp);
      add_bias(tmp, lp.b_fc2);
      x = Mat(s, d);
      for (std::size_t i = 0; i < x.data.size(); ++i)
        x.data[i] = lc.x_mid.data[i] + tmp.data[i];
    }

    ln_forward(x, lnf_g, lnf_b, fc.lnf_out, fc.lnf);
    matmul(fc.lnf_out, w_out.w, fc.logits);
    add_bias(fc.logits, b_out);
  }

  // Cross-entropy over all positions; fills dlogits (same shape as logits).
  float loss_and_dlogits(const ForwardCache& fc,
                         const std::vector<int>& targets, Mat& dlogits) const {
    const int s = fc.logits.rows;
    const int v = cfg.vocab_size;
    LEJIT_ASSERT(static_cast<int>(targets.size()) == s,
                 "targets/positions mismatch");
    dlogits = Mat(s, v);
    double loss = 0.0;
    const float inv_s = 1.0f / static_cast<float>(s);
    for (int t = 0; t < s; ++t) {
      const float* lt = fc.logits.row(t);
      float maxv = -1e30f;
      for (int i = 0; i < v; ++i) maxv = std::max(maxv, lt[i]);
      double total = 0.0;
      for (int i = 0; i < v; ++i) total += std::exp(static_cast<double>(lt[i] - maxv));
      const int y = targets[static_cast<std::size_t>(t)];
      loss += -(static_cast<double>(lt[y] - maxv) - std::log(total));
      float* dt = dlogits.row(t);
      for (int i = 0; i < v; ++i) {
        const float p = static_cast<float>(
            std::exp(static_cast<double>(lt[i] - maxv)) / total);
        dt[i] = (p - (i == y ? 1.0f : 0.0f)) * inv_s;
      }
    }
    return static_cast<float>(loss / s);
  }

  void backward(const ForwardCache& fc, const Mat& dlogits) {
    const int s = fc.logits.rows;
    const int d = cfg.d_model;
    const int nh = cfg.n_heads;
    const int dh = d / nh;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    // Output head.
    Mat d_lnf_out;
    matmul_tB(dlogits, w_out.w, d_lnf_out);
    matmul_tA_accum(fc.lnf_out, dlogits, w_out.g);
    bias_grad(dlogits, b_out);

    Mat dx(s, d);
    ln_backward(d_lnf_out, fc.lnf, lnf_g, lnf_b, dx);

    for (int li = cfg.n_layers - 1; li >= 0; --li) {
      LayerParams& lp = layers[static_cast<std::size_t>(li)];
      const LayerCache& lc = fc.layers[static_cast<std::size_t>(li)];

      // MLP branch: dx is gradient at the layer output (x_mid + mlp_out).
      Mat& d_mlp_out = dx;  // alias: same gradient flows into the branch
      Mat d_fc1_act;
      matmul_tB(d_mlp_out, lp.w_fc2.w, d_fc1_act);
      matmul_tA_accum(lc.fc1_act, d_mlp_out, lp.w_fc2.g);
      bias_grad(d_mlp_out, lp.b_fc2);
      for (std::size_t i = 0; i < d_fc1_act.data.size(); ++i)
        d_fc1_act.data[i] *= gelu_grad(lc.fc1_pre.data[i]);
      Mat d_ln2_out;
      matmul_tB(d_fc1_act, lp.w_fc1.w, d_ln2_out);
      matmul_tA_accum(lc.ln2_out, d_fc1_act, lp.w_fc1.g);
      bias_grad(d_fc1_act, lp.b_fc1);

      Mat d_x_mid = dx;  // residual path
      ln_backward(d_ln2_out, lc.ln2, lp.ln2_g, lp.ln2_b, d_x_mid);

      // Attention branch: d_x_mid is gradient at (x_in + attn_out).
      Mat d_ctx;
      matmul_tB(d_x_mid, lp.w_o.w, d_ctx);
      matmul_tA_accum(lc.ctx, d_x_mid, lp.w_o.g);
      bias_grad(d_x_mid, lp.b_o);

      Mat d_qkv(s, 3 * d);
      for (int h = 0; h < nh; ++h) {
        const Mat& att = lc.att[static_cast<std::size_t>(h)];
        const int qo = h * dh, ko = d + h * dh, vo = 2 * d + h * dh;
        // datt[t,u] = dctx_h[t]·V_h[u];   dV_h[u] += att[t,u]·dctx_h[t]
        Mat datt(s, s);
        for (int t = 0; t < s; ++t) {
          const float* dct = d_ctx.row(t) + qo;
          float* dat = datt.row(t);
          for (int u = 0; u <= t; ++u) {
            const float* vu = lc.qkv.row(u) + vo;
            float acc = 0.0f;
            for (int i = 0; i < dh; ++i) acc += dct[i] * vu[i];
            dat[u] = acc;
            float* dvu = d_qkv.row(u) + vo;
            const float a = att.at(t, u);
            for (int i = 0; i < dh; ++i) dvu[i] += a * dct[i];
          }
        }
        // Softmax backward per row, then into Q and K.
        for (int t = 0; t < s; ++t) {
          const float* at = att.row(t);
          const float* dat = datt.row(t);
          float dot = 0.0f;
          for (int u = 0; u <= t; ++u) dot += at[u] * dat[u];
          const float* qt = lc.qkv.row(t) + qo;
          float* dqt = d_qkv.row(t) + qo;
          for (int u = 0; u <= t; ++u) {
            const float ds = at[u] * (dat[u] - dot) * scale;
            if (ds == 0.0f) continue;
            const float* ku = lc.qkv.row(u) + ko;
            float* dku = d_qkv.row(u) + ko;
            for (int i = 0; i < dh; ++i) {
              dqt[i] += ds * ku[i];
              dku[i] += ds * qt[i];
            }
          }
        }
      }

      Mat d_ln1_out;
      matmul_tB(d_qkv, lp.w_qkv.w, d_ln1_out);
      matmul_tA_accum(lc.ln1_out, d_qkv, lp.w_qkv.g);
      bias_grad(d_qkv, lp.b_qkv);

      Mat d_x_in = d_x_mid;  // residual path
      ln_backward(d_ln1_out, lc.ln1, lp.ln1_g, lp.ln1_b, d_x_in);
      dx = std::move(d_x_in);
    }

    // Embeddings.
    for (int t = 0; t < s; ++t) {
      const float* dxt = dx.row(t);
      float* de = tok_emb.g.row(fc.ids[static_cast<std::size_t>(t)]);
      float* dp = pos_emb.g.row(t);
      for (int i = 0; i < d; ++i) {
        de[i] += dxt[i];
        dp[i] += dxt[i];
      }
    }
  }

  void adam_step(const AdamConfig& a) {
    ++adam_t;
    const auto params = all_params();

    if (a.grad_clip > 0.0f) {
      double norm_sq = 0.0;
      for (const Param* p : params)
        for (const float g : p->g.data) norm_sq += static_cast<double>(g) * g;
      const double norm = std::sqrt(norm_sq);
      if (norm > a.grad_clip) {
        const float scale = static_cast<float>(a.grad_clip / norm);
        for (Param* p : params)
          for (float& g : p->g.data) g *= scale;
      }
    }

    const float bc1 =
        1.0f - std::pow(a.beta1, static_cast<float>(adam_t));
    const float bc2 =
        1.0f - std::pow(a.beta2, static_cast<float>(adam_t));
    for (Param* p : params) {
      for (std::size_t i = 0; i < p->w.data.size(); ++i) {
        const float g = p->g.data[i];
        p->m.data[i] = a.beta1 * p->m.data[i] + (1.0f - a.beta1) * g;
        p->v.data[i] = a.beta2 * p->v.data[i] + (1.0f - a.beta2) * g * g;
        const float mhat = p->m.data[i] / bc1;
        const float vhat = p->v.data[i] / bc2;
        float update = mhat / (std::sqrt(vhat) + a.eps);
        if (p->decay) update += a.weight_decay * p->w.data[i];
        p->w.data[i] -= a.lr * update;
      }
    }
  }

  void zero_grads() {
    for (Param* p : all_params()) p->g.zero();
  }
};

namespace {

// Longest common prefix between the cache and `ids`, with the last token
// always reprocessed so the query position's residual stream is available.
// Rebinds the cache to `ids` and returns the number of reused positions.
std::size_t kv_common_prefix(KvCache& kv, const std::vector<int>& ids) {
  std::size_t common = 0;
  while (common < kv.ids.size() && common < ids.size() &&
         kv.ids[common] == ids[common])
    ++common;
  if (common == ids.size()) --common;
  kv.ids.assign(ids.begin(), ids.end());
  return common;
}

// lm.kv.* efficiency counters: `reused` positions served from the cache and
// `recomputed` positions paid in full. Below the context window the ratio is
// ~ctx:1 per step; once the sliding window engages, reuse collapses to the
// START token alone and every step reprocesses the remaining max_seq-1
// window positions (see Transformer::logits docs). lm.transformer.positions
// histograms `recomputed` per forward: the prefill shape.
void record_kv_counters(std::int64_t reused, std::int64_t recomputed) {
  if (!obs::metrics_enabled()) return;
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& c_reused = registry.counter("lm.kv.reused_tokens");
  static obs::Counter& c_recomputed =
      registry.counter("lm.kv.recomputed_tokens");
  static obs::Histogram& h_positions = registry.histogram(
      "lm.transformer.positions",
      obs::HistogramOptions{{1, 2, 4, 8, 16, 32, 64, 128, 256}});
  c_reused.add(reused);
  c_recomputed.add(recomputed);
  h_positions.observe(static_cast<double>(recomputed));
}

// Nonzero per-thread fingerprint for the logits() reentrancy guard.
std::uint64_t thread_fingerprint() noexcept {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1u;
}

// Owns the internal-cache critical section. Overlapping entry from a second
// thread is a programming error that would silently corrupt the KV cache
// (and with it, decoded text), so it aborts loudly instead — a release-mode
// assertion cheap enough (two uncontended atomics per forward) to always be
// on.
class ReentrancyGuard {
 public:
  explicit ReentrancyGuard(std::atomic<std::uint64_t>& owner) : owner_(owner) {
    std::uint64_t expected = 0;
    if (!owner_.compare_exchange_strong(expected, thread_fingerprint(),
                                        std::memory_order_acquire)) {
      std::fprintf(
          stderr,
          "lejit fatal: Transformer::logits() entered concurrently from two "
          "threads; the internal KV cache is not thread-safe. Give each "
          "thread its own lm::TransformerSession (or KvCache overload) "
          "instead of sharing one model instance.\n");
      std::abort();
    }
  }
  ~ReentrancyGuard() { owner_.store(0, std::memory_order_release); }

  ReentrancyGuard(const ReentrancyGuard&) = delete;
  ReentrancyGuard& operator=(const ReentrancyGuard&) = delete;

 private:
  std::atomic<std::uint64_t>& owner_;
};

}  // namespace

void Transformer::Impl::ensure_cache_shape(KvCache& kv) const {
  const int d = cfg.d_model;
  if (kv.k.empty()) {
    kv.k.assign(static_cast<std::size_t>(cfg.n_layers), Mat(cfg.max_seq, d));
    kv.v.assign(static_cast<std::size_t>(cfg.n_layers), Mat(cfg.max_seq, d));
    return;
  }
  LEJIT_REQUIRE(kv.k.size() == static_cast<std::size_t>(cfg.n_layers) &&
                    kv.k[0].rows == cfg.max_seq && kv.k[0].cols == d,
                "KvCache was sized for a different model");
}

Transformer::Impl::Logits Transformer::Impl::forward_rows(
    std::span<const std::vector<int>> ids, std::span<KvCache* const> caches,
    detail::Isa isa) const {
  thread_local Workspace ws;
  ws.session.clear();
  ws.pos.clear();
  std::int64_t reused = 0;
  for (std::size_t s = 0; s < ids.size(); ++s) {
    ensure_cache_shape(*caches[s]);
    const std::size_t common = kv_common_prefix(*caches[s], ids[s]);
    reused += static_cast<std::int64_t>(common);
    for (std::size_t t = common; t < ids[s].size(); ++t) {
      ws.session.push_back(static_cast<int>(s));
      ws.pos.push_back(static_cast<int>(t));
    }
  }
  const std::size_t rows = ws.pos.size();
  record_kv_counters(reused, static_cast<std::int64_t>(rows));
  const auto d = static_cast<std::size_t>(cfg.d_model);
  for (std::vector<float>* v : {&ws.x, &ws.a, &ws.tmp}) v->resize(rows * d);
  ws.big.resize(rows * std::max(3 * d, static_cast<std::size_t>(cfg.d_ff)));
  ws.att.resize(static_cast<std::size_t>(cfg.max_seq));
  Logits out(ids.size(),
             std::vector<float>(static_cast<std::size_t>(cfg.vocab_size)));
#if defined(__x86_64__) || defined(__i386__)
  if (isa == detail::Isa::kAvx2)
    sweep_avx2(ws, ids, caches, out);
  else
#endif
    sweep_generic(ws, ids, caches, out);
  return out;
}

namespace detail {

bool isa_supported(Isa isa) {
#if defined(__x86_64__) || defined(__i386__)
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  return isa == Isa::kGeneric || avx2;
#else
  return isa == Isa::kGeneric;
#endif
}

namespace {

// The widest path this CPU runs (isa_supported asks the CPU once).
Isa host_isa() {
  return isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kGeneric;
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void matmul_avx2(const float* x, int rows,
                                                 int m, const float* w,
                                                 const float* b, int n,
                                                 float* out) {
  tiled_matmul<F32x8>(x, rows, m, w, b, n, out);
}
#endif

}  // namespace

void matmul_rows(Isa isa, const float* x, int rows, int m, const float* w,
                 const float* b, int n, float* out) {
  LEJIT_REQUIRE(isa_supported(isa), "instruction set not supported here");
#if defined(__x86_64__) || defined(__i386__)
  if (isa == Isa::kAvx2) return matmul_avx2(x, rows, m, w, b, n, out);
#endif
  tiled_matmul<F32x4>(x, rows, m, w, b, n, out);
}

}  // namespace detail

Transformer::Transformer(TransformerConfig config, util::Rng& rng)
    : config_(config), impl_(std::make_unique<Impl>()) {
  LEJIT_REQUIRE(config.vocab_size > 0, "vocab_size must be positive");
  LEJIT_REQUIRE(config.d_model % config.n_heads == 0,
                "d_model must be divisible by n_heads");
  LEJIT_REQUIRE(config.max_seq > 1, "max_seq must exceed 1");
  impl_->cfg = config;
  impl_->init(rng);
}

Transformer::~Transformer() = default;
Transformer::Transformer(Transformer&&) noexcept = default;
Transformer& Transformer::operator=(Transformer&&) noexcept = default;

std::size_t Transformer::num_parameters() const noexcept {
  std::size_t n = 0;
  for (const Param* p : impl_->all_params()) n += p->w.size();
  return n;
}

namespace {

// START-prefixed, range-checked input ids, windowed to the last max_seq-1
// context tokens — the shared front half of every inference path.
std::vector<int> window_context(const TransformerConfig& cfg,
                                std::span<const int> context) {
  const int start_id = cfg.vocab_size;
  const std::size_t keep =
      std::min(context.size(), static_cast<std::size_t>(cfg.max_seq - 1));
  std::vector<int> ids;
  ids.reserve(keep + 1);
  ids.push_back(start_id);
  for (std::size_t i = context.size() - keep; i < context.size(); ++i) {
    const int t = context[i];
    LEJIT_REQUIRE(t >= 0 && t < cfg.vocab_size, "token id out of range");
    ids.push_back(t);
  }
  return ids;
}

void record_forward(std::int64_t t0) {
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& c_forwards = registry.counter("lm.transformer.forwards");
  static obs::Histogram& h_latency =
      registry.histogram("lm.transformer.forward_latency_us");
  c_forwards.inc();
  h_latency.observe(static_cast<double>(obs::now_ns() - t0) * 1e-3);
}

}  // namespace

std::vector<float> Transformer::Impl::logits_one(std::span<const int> context,
                                                 KvCache& kv) const {
  const bool obs_on = obs::metrics_enabled();
  const std::int64_t t0 = obs_on ? obs::now_ns() : 0;
  const std::vector<int> ids = window_context(cfg, context);
  KvCache* const caches[] = {&kv};
  std::vector<float> out =
      std::move(forward_rows({&ids, 1}, caches, detail::host_isa())[0]);
  if (obs_on) record_forward(t0);
  return out;
}

std::vector<float> Transformer::logits(std::span<const int> context) const {
  fault::inject(fault::Site::kLmForward);
  const ReentrancyGuard guard(impl_->logits_owner);
  return impl_->logits_one(context, impl_->cache);
}

std::vector<float> Transformer::logits(std::span<const int> context,
                                       KvCache& cache) const {
  fault::inject(fault::Site::kLmForward);
  return impl_->logits_one(context, cache);
}

Transformer::Impl::Logits Transformer::Impl::logits_batch(
    std::span<const std::vector<int>> contexts,
    std::span<KvCache* const> caches, detail::Isa isa) const {
  LEJIT_REQUIRE(contexts.size() == caches.size(),
                "logits_batch: contexts/caches size mismatch");
  LEJIT_REQUIRE(!contexts.empty(), "logits_batch: empty batch");
  for (std::size_t i = 0; i < caches.size(); ++i) {
    LEJIT_REQUIRE(caches[i] != nullptr, "logits_batch: null KvCache");
    for (std::size_t j = i + 1; j < caches.size(); ++j)
      LEJIT_REQUIRE(caches[i] != caches[j],
                    "logits_batch: sessions must use distinct KvCaches");
  }
  fault::inject(fault::Site::kLmForward);
  const bool obs_on = obs::metrics_enabled();
  const std::int64_t t0 = obs_on ? obs::now_ns() : 0;
  std::vector<std::vector<int>> ids_list;
  ids_list.reserve(contexts.size());
  for (const auto& context : contexts)
    ids_list.push_back(window_context(cfg, context));
  Logits out = forward_rows(ids_list, caches, isa);
  if (obs_on) {
    auto& registry = obs::MetricsRegistry::instance();
    static obs::Counter& c_batches =
        registry.counter("lm.transformer.batched_forwards");
    static obs::Counter& c_rows =
        registry.counter("lm.transformer.batched_contexts");
    static obs::Histogram& h_latency =
        registry.histogram("lm.transformer.batched_forward_latency_us");
    c_batches.inc();
    c_rows.add(static_cast<std::int64_t>(contexts.size()));
    h_latency.observe(static_cast<double>(obs::now_ns() - t0) * 1e-3);
  }
  return out;
}

std::vector<std::vector<float>> Transformer::logits_batch(
    std::span<const std::vector<int>> contexts,
    std::span<KvCache* const> caches) const {
  return impl_->logits_batch(contexts, caches, detail::host_isa());
}

std::vector<std::vector<float>> detail::ForwardAccess::logits(
    const Transformer& model, std::span<const std::vector<int>> contexts,
    std::span<KvCache* const> caches, Isa isa) {
  LEJIT_REQUIRE(isa_supported(isa), "instruction set not supported here");
  return model.impl_->logits_batch(contexts, caches, isa);
}

namespace {

// Build the START-prefixed input ids and the targets for one row, capped to
// the model's context length.
void make_training_pair(const std::vector<int>& row, int max_seq, int start_id,
                        std::vector<int>& ids, std::vector<int>& targets) {
  LEJIT_REQUIRE(!row.empty(), "empty training row");
  const std::size_t keep =
      std::min(row.size(), static_cast<std::size_t>(max_seq - 1));
  ids.clear();
  ids.reserve(keep);
  ids.push_back(start_id);
  for (std::size_t i = 0; i + 1 < keep; ++i) ids.push_back(row[i]);
  targets.assign(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(keep));
}

}  // namespace

float Transformer::train_batch(std::span<const std::vector<int>> batch,
                               const AdamConfig& adam) {
  LEJIT_REQUIRE(!batch.empty(), "empty training batch");
  impl_->zero_grads();
  double total_loss = 0.0;
  std::vector<int> ids, targets;
  for (const auto& row : batch) {
    make_training_pair(row, config_.max_seq, config_.vocab_size, ids, targets);
    ForwardCache fc;
    impl_->forward(ids, fc);
    Mat dlogits;
    total_loss += impl_->loss_and_dlogits(fc, targets, dlogits);
    // Scale gradient by 1/batch for a mean-loss step.
    const float inv_b = 1.0f / static_cast<float>(batch.size());
    for (float& g : dlogits.data) g *= inv_b;
    impl_->backward(fc, dlogits);
  }
  impl_->adam_step(adam);
  impl_->invalidate_cache();
  return static_cast<float>(total_loss / static_cast<double>(batch.size()));
}

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x4C654A54;  // "LeJT"
constexpr std::uint32_t kCheckpointVersion = 1;
}  // namespace

void Transformer::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw util::RuntimeError("cannot open checkpoint for write: " + path);
  const auto put_u32 = [&](std::uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(kCheckpointMagic);
  put_u32(kCheckpointVersion);
  for (const int v : {config_.vocab_size, config_.d_model, config_.n_layers,
                      config_.n_heads, config_.d_ff, config_.max_seq})
    put_u32(static_cast<std::uint32_t>(v));
  const std::vector<float> flat = parameters_flat();
  put_u32(static_cast<std::uint32_t>(flat.size()));
  out.write(reinterpret_cast<const char*>(flat.data()),
            static_cast<std::streamsize>(flat.size() * sizeof(float)));
  if (!out) throw util::RuntimeError("checkpoint write failed: " + path);
}

Transformer Transformer::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::RuntimeError("cannot open checkpoint: " + path);
  const auto get_u32 = [&]() {
    std::uint32_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  if (get_u32() != kCheckpointMagic)
    throw util::RuntimeError("not a LeJIT checkpoint: " + path);
  if (get_u32() != kCheckpointVersion)
    throw util::RuntimeError("unsupported checkpoint version: " + path);
  TransformerConfig cfg;
  cfg.vocab_size = static_cast<int>(get_u32());
  cfg.d_model = static_cast<int>(get_u32());
  cfg.n_layers = static_cast<int>(get_u32());
  cfg.n_heads = static_cast<int>(get_u32());
  cfg.d_ff = static_cast<int>(get_u32());
  cfg.max_seq = static_cast<int>(get_u32());
  util::Rng init_rng(0);
  Transformer model(cfg, init_rng);
  const auto count = get_u32();
  std::vector<float> flat(count);
  in.read(reinterpret_cast<char*>(flat.data()),
          static_cast<std::streamsize>(flat.size() * sizeof(float)));
  if (!in) throw util::RuntimeError("truncated checkpoint: " + path);
  model.set_parameters_flat(flat);
  return model;
}

std::vector<float> Transformer::parameters_flat() const {
  std::vector<float> flat;
  for (const Param* p : impl_->all_params())
    flat.insert(flat.end(), p->w.data.begin(), p->w.data.end());
  return flat;
}

void Transformer::set_parameters_flat(std::span<const float> flat) {
  std::size_t offset = 0;
  for (Param* p : impl_->all_params()) {
    LEJIT_REQUIRE(offset + p->w.size() <= flat.size(),
                  "flat parameter vector too short");
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + p->w.size()),
              p->w.data.begin());
    offset += p->w.size();
  }
  LEJIT_REQUIRE(offset == flat.size(), "flat parameter vector size mismatch");
  impl_->invalidate_cache();
}

std::pair<float, std::vector<float>> Transformer::loss_and_gradient(
    std::span<const std::vector<int>> rows) {
  LEJIT_REQUIRE(!rows.empty(), "empty gradient batch");
  impl_->zero_grads();
  double total_loss = 0.0;
  std::vector<int> ids, targets;
  for (const auto& row : rows) {
    make_training_pair(row, config_.max_seq, config_.vocab_size, ids, targets);
    ForwardCache fc;
    impl_->forward(ids, fc);
    Mat dlogits;
    total_loss += impl_->loss_and_dlogits(fc, targets, dlogits);
    const float inv_b = 1.0f / static_cast<float>(rows.size());
    for (float& g : dlogits.data) g *= inv_b;
    impl_->backward(fc, dlogits);
  }
  std::vector<float> grad;
  for (const Param* p : impl_->all_params())
    grad.insert(grad.end(), p->g.data.begin(), p->g.data.end());
  return {static_cast<float>(total_loss / static_cast<double>(rows.size())),
          std::move(grad)};
}

float Transformer::evaluate(std::span<const std::vector<int>> rows) const {
  LEJIT_REQUIRE(!rows.empty(), "empty evaluation set");
  double total = 0.0;
  std::vector<int> ids, targets;
  for (const auto& row : rows) {
    make_training_pair(row, config_.max_seq, config_.vocab_size, ids, targets);
    ForwardCache fc;
    impl_->forward(ids, fc);
    Mat dlogits;
    total += impl_->loss_and_dlogits(fc, targets, dlogits);
  }
  return static_cast<float>(total / static_cast<double>(rows.size()));
}

}  // namespace lejit::lm
