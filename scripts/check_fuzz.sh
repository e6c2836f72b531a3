#!/usr/bin/env bash
# Deterministic fuzz smoke (DESIGN.md §11): replay the checked-in corpus for
# each dialect harness, then a fixed mutation budget from a fixed seed. The
# standalone driver derives every mutation from dbx::Rng, so two runs on any
# machine execute byte-identical inputs — a failure here is reproducible by
# rerunning the printed command.
#
# Open-ended coverage-guided runs need Clang: configure a separate build with
# -DDBX_FUZZER=ON and run the binaries as libFuzzer targets instead.
set -euo pipefail
cd "$(dirname "$0")/.."

ITERS=${DBX_FUZZ_ITERS:-10000}
SEED=${DBX_FUZZ_SEED:-1}

fail() { echo "FUZZ CHECK FAILED: $*" >&2; exit 1; }

cmake -B build >/dev/null || fail "configure"
cmake --build build -j "$(nproc)" --target lexer_fuzz parser_fuzz \
  server_frame_fuzz dbxc_fuzz >/dev/null || fail "build"

for harness in lexer parser server_frame dbxc; do
  echo "== ${harness}_fuzz: corpus + $ITERS mutations (seed $SEED)"
  build/tests/fuzz/${harness}_fuzz \
    --corpus "tests/fuzz/corpus/${harness}" \
    --iters "$ITERS" --seed "$SEED" || fail "${harness}_fuzz"
done

echo "FUZZ CHECKS PASSED"
