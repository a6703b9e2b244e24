// Minimal dense-matrix support for the transformer.
//
// Row-major float matrices with the three GEMM variants backprop needs.
// Inference does not use these GEMMs: its tiled kernels are in
// transformer.cpp (DESIGN.md §13.3).
#pragma once

#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace lejit::lm {

struct Mat {
  int rows = 0;
  int cols = 0;
  std::vector<float> data;

  Mat() = default;
  Mat(int r, int c) : rows(r), cols(c), data(static_cast<std::size_t>(r) * static_cast<std::size_t>(c), 0.0f) {
    LEJIT_REQUIRE(r >= 0 && c >= 0, "negative matrix dimension");
  }

  float* row(int r) {
    return data.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols);
  }
  const float* row(int r) const {
    return data.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols);
  }
  float& at(int r, int c) { return row(r)[c]; }
  float at(int r, int c) const { return row(r)[c]; }

  void zero() { std::fill(data.begin(), data.end(), 0.0f); }

  void init_normal(util::Rng& rng, float stddev) {
    for (float& v : data) v = static_cast<float>(rng.normal(0.0, stddev));
  }

  std::size_t size() const noexcept { return data.size(); }
};

// C = A * B                 (A: m×k, B: k×n, C: m×n)
void matmul(const Mat& a, const Mat& b, Mat& c);
// C += A^T * B              (A: k×m, B: k×n, C: m×n) — weight gradients
void matmul_tA_accum(const Mat& a, const Mat& b, Mat& c);
// C = A * B^T               (A: m×k, B: n×k, C: m×n) — input gradients
void matmul_tB(const Mat& a, const Mat& b, Mat& c);

}  // namespace lejit::lm
