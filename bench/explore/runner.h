// One explore_bench run of one workload: set-up, warm-up, the measured
// window over the loopback server, the live output check against a serial
// uncached engine, and — with tracing on — the per-layer replay.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/explore/workloads.h"

namespace dbx::explore {

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the measured window; a tenth of it more is warm-up traffic.
  double seconds = 20.0;
  bool trace = false;
  Scale scale;
  /// Work inside every EXEC (the dispatcher's exec hook) that takes this
  /// long on the reference host: the sensitivity self-test's seeded
  /// slowdown. 0 = off.
  uint64_t inject_delay_us = 0;
  /// Scratch directory for DBXC files, inside the working directory.
  std::string tmp_dir = "explore_bench.tmp";
  /// Where to write the traced replay as a Chrome trace ("" = nowhere).
  std::string trace_out;
};

/// One reported metric. `value` is absent when it could not be measured
/// honestly (a percentile with fewer than ten samples beyond it).
struct Metric {
  Metric(std::string name_in, std::string unit_in)
      : name(std::move(name_in)), unit(std::move(unit_in)) {}

  std::string name;
  std::string unit;
  std::optional<double> value;
  /// Raw samples behind a percentile, statements behind a per-layer mean.
  size_t samples = 0;
  /// The value in each time slice of the window (for setup_s, the median
  /// set-up on each core), and (max - min) / median over them.
  std::vector<std::optional<double>> reps;
  std::optional<double> spread;
  /// Per-layer only: the metric's share of the mean request time.
  std::optional<double> share;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer under trace
  /// Descriptive numbers that are not gated metrics (sizes, counters).
  std::vector<std::pair<std::string, double>> info;
  std::vector<std::string> notes;
};

/// Per-layer metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace dbx::explore
