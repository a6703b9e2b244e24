// The fixed training inputs and the nano-GPT recipe. perfbench/run.py keys
// the cached checkpoint by a hash of this file, bench.hpp and the program's
// lm, telemetry and util sources, so a change to any of them retrains.
#include <iostream>

#include "bench.hpp"
#include "lm/trainer.hpp"
#include "obs/timer.hpp"

namespace lejit::perfbench {

namespace {

// bench::make_env's defaults: 30 racks x 80 windows, 5 held out.
constexpr int kEnvRacks = 30;
constexpr int kEnvWindowsPerRack = 80;
constexpr int kEnvTestRacks = 5;
constexpr int kTrainSteps = 400;

}  // namespace

Inputs make_inputs() {
  Inputs inputs;
  const telemetry::Dataset dataset =
      telemetry::generate_dataset(telemetry::GeneratorConfig{
          .num_racks = kEnvRacks,
          .windows_per_rack = kEnvWindowsPerRack,
          .seed = kEnvSeed});
  const telemetry::Split split =
      telemetry::split_by_rack(dataset, kEnvTestRacks, kEnvSeed + 1);
  inputs.limits = dataset.limits;
  inputs.layout = telemetry::telemetry_row_layout(dataset.limits);
  inputs.train = telemetry::all_windows(split.train);
  return inputs;
}

void train_checkpoint(const Inputs& inputs, const std::string& path) {
  util::Rng init_rng(kEnvSeed);
  lm::Transformer model(
      lm::TransformerConfig{.vocab_size = inputs.tokenizer.vocab_size(),
                            .d_model = 64,
                            .n_layers = 2,
                            .n_heads = 4,
                            .d_ff = 128,
                            .max_seq = 64},
      init_rng);
  std::vector<std::vector<int>> rows;
  rows.reserve(inputs.train.size());
  for (const auto& w : inputs.train)
    rows.push_back(inputs.tokenizer.encode(telemetry::window_to_row(w)));
  util::Rng train_rng(kEnvSeed + 1);
  const obs::Timer timer;
  const lm::TrainReport report = lm::train_lm(
      model, rows,
      lm::TrainConfig{.steps = kTrainSteps,
                      .batch_size = 16,
                      .adam = lm::AdamConfig{.lr = 2e-3f},
                      .warmup_steps = 20},
      train_rng);
  std::cerr << "[perfbench] trained the nano-GPT in "
            << timer.elapsed_seconds() << " s, loss " << report.first_loss
            << " -> " << report.final_loss << "\n";
  model.save(path);
}

}  // namespace lejit::perfbench
