// Micro-benchmarks of the transformer's inference forward, on the nano-GPT
// shape the repo benchmark (perfbench) trains: d_model 64, 2 layers, 4 heads,
// d_ff 128, max_seq 64, the telemetry row vocabulary. Weights are a seeded
// random init; forward cost does not depend on their values.
//
//   BM_Prefill/P      a cold forward computing P positions (P-1 context
//                     tokens after START), as a row's prompt prefill does
//   BM_Step           one new position on top of a 24-token cached context,
//                     as each decoded char does
//   BM_Batch4Step     the same step for 4 sessions in one logits_batch call,
//                     as a full serve group does
#include <benchmark/benchmark.h>

#include "harness.hpp"
#include "lm/transformer.hpp"
#include "obs/json.hpp"
#include "telemetry/text.hpp"

namespace {

using namespace lejit;

constexpr int kStepFrom = 24;  // cached context length the steps extend

lm::TransformerConfig config() {
  return lm::TransformerConfig{
      .vocab_size = static_cast<int>(telemetry::row_alphabet().size()),
      .d_model = 64,
      .n_layers = 2,
      .n_heads = 4,
      .d_ff = 128,
      .max_seq = 64};
}

const lm::Transformer& model() {
  static const lm::Transformer m = [] {
    util::Rng rng(20250705);
    return lm::Transformer(config(), rng);
  }();
  return m;
}

std::vector<int> context(int tokens, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> ids;
  for (int i = 0; i < tokens; ++i)
    ids.push_back(
        static_cast<int>(rng.uniform_int(0, config().vocab_size - 1)));
  return ids;
}

void BM_Prefill(benchmark::State& state) {
  const std::vector<int> ctx = context(static_cast<int>(state.range(0)) - 1, 1);
  lm::KvCache cache;
  for (auto _ : state) {
    cache.clear();
    benchmark::DoNotOptimize(model().logits(ctx, cache));
  }
}
BENCHMARK(BM_Prefill)->Arg(8)->Arg(24)->Arg(63)->Unit(benchmark::kMicrosecond);

// Drop the cache's last position, so the next call recomputes exactly one.
void rewind_one(lm::KvCache& cache) { cache.ids.pop_back(); }

void BM_Step(benchmark::State& state) {
  const std::vector<int> ctx = context(kStepFrom + 1, 2);
  lm::KvCache cache;
  (void)model().logits(ctx, cache);
  for (auto _ : state) {
    rewind_one(cache);
    benchmark::DoNotOptimize(model().logits(ctx, cache));
  }
}
BENCHMARK(BM_Step)->Unit(benchmark::kMicrosecond);

void BM_Batch4Step(benchmark::State& state) {
  std::vector<std::vector<int>> ctxs;
  std::vector<lm::KvCache> caches(4);
  std::vector<lm::KvCache*> ptrs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    ctxs.push_back(context(kStepFrom + 1, 3 + s));
    ptrs.push_back(&caches[s]);
  }
  (void)model().logits_batch(ctxs, ptrs);
  for (auto _ : state) {
    for (lm::KvCache& c : caches) rewind_one(c);
    benchmark::DoNotOptimize(model().logits_batch(ctxs, ptrs));
  }
}
BENCHMARK(BM_Batch4Step)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  lejit::bench::JsonReport report("lm_forward", &argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report.add_env(lejit::bench::BenchEnvConfig{.use_transformer = true,
                                              .train_steps = 0});
  const lejit::lm::TransformerConfig c = config();
  lejit::obs::JsonWriter w;
  w.begin_object();
  w.key("vocab_size").value(c.vocab_size);
  w.key("d_model").value(c.d_model);
  w.key("n_layers").value(c.n_layers);
  w.key("n_heads").value(c.n_heads);
  w.key("d_ff").value(c.d_ff);
  w.key("max_seq").value(c.max_seq);
  w.end_object();
  report.add_raw("model", w.str());
  report.write();
  return 0;
}
