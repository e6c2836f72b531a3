// Copyright (c) DBExplorer reproduction authors.
// Bench-trend regression harness (DESIGN.md §14): compares two BENCH_*.json
// documents (or two baseline directories) metric by metric under relative
// thresholds and renders a markdown verdict. The JSON layer is a tiny
// flattening parser — nested objects and arrays become dotted/indexed paths
// ("configs.0.best_ms") — so every bench's emitter keeps its natural shape
// and benchdiff needs no per-bench schema.
//
// Metric direction is classified from the path's last segment:
//   *_ms, errors            -> lower is better
//   qps, *per_sec, speedup* -> higher is better
//   everything else         -> informational (never gates)
// A lower-better metric regresses when current > baseline * (1 + threshold)
// AND (current - baseline) >= min_abs_ms (absolute floor, so microsecond
// noise on tiny smoke runs cannot gate); higher-better mirrors that. A
// baseline value <= 0 is skipped (no meaningful ratio).
//
// Config leaves — those whose last segment is smoke, rows, mode,
// hardware_threads or threads — describe the run, not its speed. When one
// differs between the documents (or is missing from one), the runs are not
// comparable: the report names the leaf and compares nothing.

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

namespace dbx::benchdiff {

/// A JSON document flattened to dotted/indexed leaf paths. Booleans land in
/// `numbers` as 0/1; nulls are dropped.
struct FlatJson {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

/// Parses `text` (one JSON object) into flattened leaves. InvalidArgument on
/// malformed input; duplicate keys keep the last value.
[[nodiscard]] Result<FlatJson> ParseFlatJson(const std::string& text);

enum class Direction { kLowerBetter, kHigherBetter, kInfo };

/// Classifies `path` by its last '.'-separated segment (see header comment).
[[nodiscard]] Direction ClassifyMetric(const std::string& path);

struct DiffOptions {
  /// Relative regression threshold (0.20 = 20%).
  double threshold = 0.20;
  /// Absolute floor for *_ms regressions: deltas under this many ms never
  /// gate, whatever the ratio. 0 disables the floor.
  double min_abs_ms = 0.0;
};

struct MetricDiff {
  std::string key;
  double baseline = 0.0;
  double current = 0.0;
  Direction direction = Direction::kInfo;
  /// (current - baseline) / baseline; 0 when baseline <= 0.
  double rel_change = 0.0;
  bool regression = false;
  std::string note;  // "baseline <= 0, skipped"
};

struct DiffReport {
  std::string baseline_name;
  std::string current_name;
  DiffOptions options;
  /// "<leaf>: baseline <v>, current <v>" for the first differing config
  /// leaf; empty when the runs are comparable. When set, `rows` is empty.
  std::string config_mismatch;
  std::vector<MetricDiff> rows;

  [[nodiscard]] bool has_regression() const;
  /// Markdown table: key, baseline, current, relative change, verdict.
  [[nodiscard]] std::string Markdown() const;
};

/// Compares every numeric metric present in both documents, unless a config
/// leaf differs (see the header comment).
[[nodiscard]] DiffReport DiffBenchJson(const FlatJson& baseline,
                                       const FlatJson& current,
                                       const DiffOptions& options);

/// Multiplies every numeric metric whose last path segment equals
/// `key_suffix` (or whose full path equals it) by `factor` — the seeded
/// regression used by the self-test and check.sh's sensitivity gate.
/// Returns how many metrics changed.
size_t SeedRegression(FlatJson* doc, const std::string& key_suffix,
                      double factor);

/// Built-in self-test over a BENCH_scale.json-shaped sample: an identical
/// compare must pass, a seeded (1 + 2 * threshold) p95 regression must fail
/// at the default options, and a changed `configs.1.threads` must refuse to
/// compare. OK when all three behave; Internal with a description otherwise.
[[nodiscard]] Status RunSelfTest();

}  // namespace dbx::benchdiff
