#!/usr/bin/env bash
# Full verification: configure, build, run the labeled test tiers, then every
# bench and example. Every stage must fail the whole script — none is
# advisory — so each command is checked explicitly rather than trusting
# `set -e` semantics inside loops, pipelines, and compound commands.
#
# Test tiers (ctest labels, assigned in tests/CMakeLists.txt):
#   unit        — fast, hermetic suites (also the TSAN pass, scripts/check_tsan.sh)
#   integration — cross-module / end-to-end suites
#   bench-smoke — benchmark binaries in --smoke mode (verification live,
#                 timing thresholds not enforced)
#   obs         — observability suites (metrics/tracing/EXPLAIN; subset of
#                 unit, also run standalone so failures are easy to spot)
#   lint        — dbx_lint over the tree + its unit suite (scripts/check_lint.sh
#                 adds the seeded-violation self-test and optional clang-tidy)
#   fuzz        — deterministic dialect + protocol-frame fuzz smoke: corpus
#                 replay + fixed mutation budget (scripts/check_fuzz.sh)
#   server      — multi-session exploration server suites over the loopback
#                 transport (subset of unit, also run standalone)
#   storage     — storage-backend suites: DBXC round-trip/durability contract
#                 plus cross-backend server-path byte-identity (subset of
#                 unit+integration, also run standalone)
#   analyze     — compile-time thread-safety analysis under clang++
#                 (scripts/check_analyze.sh; auto-skips with a notice when
#                 no Clang front end is installed — GCC compiles the
#                 capability annotations as no-ops)
set -euo pipefail
cd "$(dirname "$0")/.."

fail() { echo "CHECK FAILED: $*" >&2; exit 1; }

cmake -B build || fail "configure"
cmake --build build -j "$(nproc)" || fail "build"

scripts/check_lint.sh || fail "lint (dbx_lint + self-test)"
scripts/check_analyze.sh || fail "thread-safety analysis (clang -Wthread-safety)"
ctest --test-dir build -L fuzz --output-on-failure || fail "fuzz smoke"

ctest --test-dir build -L unit --output-on-failure || fail "unit tests"
ctest --test-dir build -L integration --output-on-failure \
  || fail "integration tests"
ctest --test-dir build -L bench-smoke --output-on-failure \
  || fail "bench smoke runs"
ctest --test-dir build -L obs --output-on-failure || fail "obs tests"
ctest --test-dir build -L server --output-on-failure || fail "server tests"
ctest --test-dir build -L storage --output-on-failure || fail "storage tests"

# Bench-trend gate (DESIGN.md §14): the bench-smoke tier above refreshed
# build/BENCH_*.json; compare them against the committed baselines. First the
# harness proves its own sensitivity — the self-test must pass and a seeded
# +30% p95 regression must exit 1 — then the live compare runs with generous
# smoke-mode thresholds (override via DBX_BENCH_THRESHOLD /
# DBX_BENCH_MIN_ABS_MS). benchdiff exits 2 without a verdict when a config
# leaf (smoke, rows, mode, hardware_threads, threads) differs from the
# baseline's. DBX_UPDATE_BASELINES=1 refreshes the baselines instead of
# gating on them.
BENCHDIFF=build/tools/dbx_benchdiff/dbx_benchdiff
"$BENCHDIFF" --self-test || fail "benchdiff self-test"
seeded_rc=0
"$BENCHDIFF" --baseline bench/baselines/BENCH_scale.json \
  --current bench/baselines/BENCH_scale.json \
  --seed-regression p95_ms:1.3 >/dev/null || seeded_rc=$?
[ "$seeded_rc" = "1" ] \
  || fail "benchdiff exited $seeded_rc on a seeded p95 regression (want 1)"
if [ "${DBX_UPDATE_BASELINES:-0}" = "1" ]; then
  cp build/BENCH_scale.json build/BENCH_storage.json bench/baselines/ \
    || fail "baseline refresh"
  echo "bench baselines refreshed from build/"
else
  trend_rc=0
  "$BENCHDIFF" --baseline bench/baselines --current build \
    --threshold "${DBX_BENCH_THRESHOLD:-0.5}" \
    --min-abs-ms "${DBX_BENCH_MIN_ABS_MS:-3}" || trend_rc=$?
  case "$trend_rc" in
    0) ;;
    2) fail "bench baselines were recorded under a different config, or could not be read (see the benchdiff note above); refresh them on this host with DBX_UPDATE_BASELINES=1" ;;
    *) fail "bench trend regression (rerun with DBX_UPDATE_BASELINES=1 after an intended change)" ;;
  esac
fi

# Re-run the test tiers with the threaded paths forced on: the parallel tests
# read DBX_TEST_THREADS and add that count to their sweeps (thread count never
# changes output — the byte-identity suites fail loudly if it does).
DBX_TEST_THREADS=4 ctest --test-dir build \
  -L 'unit|integration' --output-on-failure || fail "threaded re-run"

# UBSan tier: rebuild with -fsanitize=undefined (no-recover) and run the
# full unit tier. Catches signed overflow, bad shifts, misaligned access.
cmake -B build-ubsan -S . -G Ninja -DDBX_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo || fail "ubsan configure"
cmake --build build-ubsan || fail "ubsan build"
ctest --test-dir build-ubsan -L unit --output-on-failure \
  || fail "unit tier under UBSan"

for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "== $b"
  "$b" || fail "bench $b"
done

for e in build/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue
  echo "== $e"
  case "$e" in
    */cadview_sql_repl)  # interactive: smoke only
      printf '\\quit\n' | "$e" || fail "example $e" ;;
    *)
      "$e" || fail "example $e" ;;
  esac
done
echo "ALL CHECKS PASSED"
