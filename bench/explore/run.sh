#!/usr/bin/env bash
# Builds explore_bench from the sources in this checkout (first run only,
# then incrementally) and runs it with the given arguments. Run from the
# repository root:
#   bash bench/explore/run.sh --workload cold_build --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so stdout ends with the benchmark's result line.
set -euo pipefail

here="$(dirname "$0")"
build=".bench_build/explore"

if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target explore_bench -j "$(nproc)" >&2

exec "$build/explore_bench" --tmp-dir ".bench_build/explore_tmp" "$@"
