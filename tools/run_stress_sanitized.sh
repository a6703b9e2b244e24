#!/bin/sh
# Build a sanitizer preset and run only the `stress`-labelled fault-injection
# tests under it. The tier-1 loop (cmake/ctest on the default build) stays
# fast because each instrumented tree lives in its own binary dir and only
# the stress binary is built.
#
#   usage: run_stress_sanitized.sh [--tsan]
#
# Default is ASan+UBSan (memory/UB bugs); --tsan selects ThreadSanitizer,
# which is what catches races in the serve runtime's session pool. The two are
# separate presets because the sanitizers cannot be combined in one binary.
set -eu

cd "$(dirname "$0")/.."

PRESET=asan-ubsan
TEST_PRESET=stress-asan-ubsan
if [ "${1:-}" = "--tsan" ]; then
  PRESET=tsan
  TEST_PRESET=stress-tsan
fi

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j --target lejit_stress_tests
ctest --preset "$TEST_PRESET"
