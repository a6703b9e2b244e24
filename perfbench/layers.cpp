// Microcalls: single calls into one layer each, timed outside the workload
// loop with the program's obs layer off.
#include <algorithm>

#include "absint/absint.hpp"
#include "bench.hpp"
#include "core/transition.hpp"
#include "obs/timer.hpp"
#include "plan/plan.hpp"
#include "serve/serve.hpp"
#include "smt/backend.hpp"

namespace lejit::perfbench {

namespace {

constexpr std::size_t kCalls = 64;
constexpr int kStepFrom = 24;  // context length the step calls extend

template <typename F>
double time_us(F&& f) {
  const obs::Timer timer;
  f();
  return static_cast<double>(timer.elapsed_ns()) * 1e-3;
}

// Token ids of full rows, cut to fit the model's window.
std::vector<std::vector<int>> row_ids(
    const Inputs& inputs, const lm::Transformer& model,
    std::span<const telemetry::Window> windows, std::size_t count) {
  const auto cap = static_cast<std::size_t>(model.config().max_seq - 2);
  std::vector<std::vector<int>> out;
  for (std::size_t i = 0; i < count && i < windows.size(); ++i) {
    std::vector<int> ids =
        inputs.tokenizer.encode(telemetry::window_to_row(windows[i]));
    ids.resize(std::min(ids.size(), cap));
    out.push_back(std::move(ids));
  }
  return out;
}

}  // namespace

void measure_layer_calls(const Inputs& inputs, const Stack& stack,
                         std::span<const std::string> prompts,
                         std::span<const telemetry::Window> windows,
                         std::vector<Metric>& out) {
  const lm::Transformer& model = *stack.model;
  const telemetry::RowLayout& layout = inputs.layout;

  // lm: a prompt-length cold forward, one-token extensions, and the same
  // extensions for four sessions in one batched forward.
  std::vector<double> prefill, step, batch4;
  for (std::size_t i = 0; i < kCalls && !prompts.empty(); ++i) {
    const std::vector<int> ctx =
        inputs.tokenizer.encode(prompts[i % prompts.size()]);
    lm::KvCache cache;
    prefill.push_back(time_us([&] { (void)model.logits(ctx, cache); }));
  }
  const auto rows = row_ids(inputs, model, windows, 8);
  for (const auto& ids : rows) {
    lm::KvCache cache;
    const std::span<const int> all(ids);
    (void)model.logits(all.first(kStepFrom), cache);
    for (std::size_t k = kStepFrom + 1; k <= ids.size(); ++k)
      step.push_back(time_us([&] { (void)model.logits(all.first(k), cache); }));
  }
  for (std::size_t g = 0; g + 4 <= rows.size(); g += 4) {
    std::vector<lm::KvCache> caches(4);
    std::vector<lm::KvCache*> ptrs;
    std::size_t len = SIZE_MAX;
    for (std::size_t s = 0; s < 4; ++s) {
      ptrs.push_back(&caches[s]);
      len = std::min(len, rows[g + s].size());
      (void)model.logits(std::span<const int>(rows[g + s]).first(kStepFrom),
                         caches[s]);
    }
    for (std::size_t k = kStepFrom + 1; k <= len; ++k) {
      std::vector<std::vector<int>> ctxs;
      for (std::size_t s = 0; s < 4; ++s)
        ctxs.emplace_back(rows[g + s].begin(),
                          rows[g + s].begin() + static_cast<std::ptrdiff_t>(k));
      batch4.push_back(time_us([&] { (void)model.logits_batch(ctxs, ptrs); }));
    }
  }
  out.push_back({"lm.prefill_us", median(prefill), "us"});
  out.push_back({"lm.step_us", median(step), "us"});
  out.push_back({"lm.batch4_step_us", median(batch4), "us"});

  // smt: a fresh backend with the rule set, then one digit probe under a
  // prompt's pins: "can the first fine field start with its true digit?".
  std::vector<double> probe;
  const int fine = layout.first_fine_field();
  const auto fine_digits = core::digits_for(
      layout.fields[static_cast<std::size_t>(fine)].max_value);
  for (std::size_t i = 0; i < kCalls / 2 && !windows.empty(); ++i) {
    const std::vector<smt::Int> truth =
        rules::field_assignment(windows[i % windows.size()]);
    smt::Int lead = truth[static_cast<std::size_t>(fine)];
    while (lead >= 10) lead /= 10;
    probe.push_back(time_us([&] {
      const auto backend = smt::make_backend(smt::BackendConfig{});
      const std::vector<smt::VarId> vars =
          rules::declare_fields(*backend, layout);
      rules::assert_rules(*backend, stack.rules);
      std::vector<smt::Formula> pins;
      for (int f = 0; f < fine; ++f)
        pins.push_back(smt::eq(vars[static_cast<std::size_t>(f)],
                               truth[static_cast<std::size_t>(f)]));
      pins.push_back(core::prefix_completion_formula(
          vars[static_cast<std::size_t>(fine)], core::DigitPrefix{lead, 1},
          fine_digits));
      (void)backend->check_assuming(pins, smt::Budget{});
    }));
  }
  out.push_back({"smt.probe_us", median(probe), "us"});

  // absint: the whole analysis, and one refine_all after pinning one field.
  std::vector<double> analyze_ms, refine;
  std::vector<absint::AbsVal> base;
  for (int rep = 0; rep < 5; ++rep)
    analyze_ms.push_back(time_us([&] {
                           base = absint::analyze(stack.rules, layout).fields;
                         }) * 1e-3);
  for (std::size_t i = 0; i < kCalls && !windows.empty(); ++i) {
    const std::vector<smt::Int> truth =
        rules::field_assignment(windows[i % windows.size()]);
    const auto f = static_cast<std::size_t>(i % static_cast<std::size_t>(fine));
    std::vector<absint::AbsVal> state = base;
    state[f] = absint::meet(state[f], absint::AbsVal::top(truth[f], truth[f]));
    refine.push_back(
        time_us([&] { (void)absint::refine_all(state, stack.rules); }));
  }
  out.push_back({"absint.refine_us", median(refine), "us"});
  out.push_back({"absint.analyze_ms", median(analyze_ms), "ms"});

  std::vector<double> compile_ms;
  for (int rep = 0; rep < 3; ++rep)
    compile_ms.push_back(time_us([&] {
                           (void)plan::compile(stack.rules, layout);
                         }) * 1e-3);
  out.push_back({"plan.compile_ms", median(compile_ms), "ms"});

  std::vector<double> ctor_ms;
  for (int rep = 0; rep < 3; ++rep) {
    std::unique_ptr<serve::Server> server;
    ctor_ms.push_back(time_us([&] {
                        server = std::make_unique<serve::Server>(
                            model, inputs.tokenizer, layout, stack.rules,
                            core::DecoderConfig{}, serve::ServeConfig{});
                      }) * 1e-3);
  }
  out.push_back({"serve.ctor_ms", median(ctor_ms), "ms"});
}

}  // namespace lejit::perfbench
