// perfbench: the repo benchmark's binary.
//
//   perfbench train --out MODEL
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --model MODEL
//                 [--trace-out FILE]
//
// `train` writes the nano-GPT checkpoint the workloads load. `run` prints
// one info line and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and exits 0 only when every output check passed. perfbench/run.py is the
// entry point that builds this binary and supplies the checkpoint.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using namespace lejit::perfbench;

int usage() {
  std::cerr << "usage: perfbench train --out MODEL\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --model MODEL [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (!key.starts_with("--")) return usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto flag = [&](const std::string& key) -> std::string {
    const auto it = flags.find(key);
    return it == flags.end() ? std::string() : it->second;
  };

  try {
    if (command == "train") {
      if (flag("out").empty()) return usage();
      train_checkpoint(make_inputs(), flag("out"));
      return 0;
    }
    if (command != "run" || flag("workload").empty() || flag("model").empty())
      return usage();
    Options options;
    options.workload = flag("workload");
    options.seed = std::stoull(flag("seed").empty() ? "1" : flag("seed"));
    options.seconds =
        std::stod(flag("seconds").empty() ? "10" : flag("seconds"));
    options.trace = flag("trace") == "1";
    options.model_path = flag("model");
    options.trace_out = flag("trace-out");
    if (options.seconds <= 0.0) return usage();
    return run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
