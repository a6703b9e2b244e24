// Internal to src/lm and its tests: entry points into both instruction-set
// copies of the inference forward (DESIGN.md §13.3), so tests can pin each.
#pragma once

#include <span>
#include <vector>

#include "lm/transformer.hpp"

namespace lejit::lm::detail {

enum class Isa { kGeneric, kAvx2 };
bool isa_supported(Isa isa);  // whether this CPU runs `isa`; kGeneric always

// out (rows×n) = b + x (rows×m) · w (m×n), all row-major, in the order every
// forward uses per element: ascending i, exact-zero inputs skipped.
void matmul_rows(Isa isa, const float* x, int rows, int m, const float* w,
                 const float* b, int n, float* out);

struct ForwardAccess {
  // Transformer::logits_batch through the `isa` copy.
  static std::vector<std::vector<float>> logits(
      const Transformer& model, std::span<const std::vector<int>> contexts,
      std::span<KvCache* const> caches, Isa isa);
};

}  // namespace lejit::lm::detail
