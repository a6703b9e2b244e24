// Deterministic per-row RNG for fleet-scale decoding.
//
// The fleet driver is serve::Server (src/serve/); this header keeps only the
// row RNG derivation it shares with every sequential oracle that must
// reproduce its rows (tests, benches, `lejit_cli serve-bench --verify`).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace lejit::core {

// Deterministic per-row RNG: depends only on (seed, row, attempt), so results
// are schedule-independent. Serve decodes every attempt of row i with
// row_rng(seed, i, 0), so a row that succeeds on a retry is bit-identical to
// its sequential decode.
util::Rng row_rng(std::uint64_t seed, std::size_t row, int attempt) noexcept;

}  // namespace lejit::core
