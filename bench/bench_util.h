// Shared helpers for the experiment harnesses: uniform row printing so every
// bench emits figure-ready series ("x, series, y") plus PAPER-SHAPE summary
// lines that EXPERIMENTS.md records, latency recording through the metrics
// registry (p50/p95 come from the same histograms production code uses), and
// the --trace-out flag that dumps a Chrome trace of the run.

#pragma once

#include <cstdio>
#include <cstring>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/status.h"

namespace dbx::bench {

inline void Header(const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void Section(const std::string& name) {
  std::printf("\n-- %s --\n", name.c_str());
}

/// A figure data point: x value, series label, y value.
inline void Row(const std::string& x, const std::string& series, double y,
                const char* unit = "") {
  std::printf("  %-14s %-28s %10.3f %s\n", x.c_str(), series.c_str(), y, unit);
}

/// The claim the paper makes about this experiment, followed by what we
/// measured; EXPERIMENTS.md quotes these lines.
inline void PaperShape(const std::string& claim) {
  std::printf("PAPER-SHAPE: %s\n", claim.c_str());
}

inline void Measured(const std::string& result) {
  std::printf("MEASURED:    %s\n", result.c_str());
}

/// Flags shared by the experiment binaries.
struct Args {
  bool smoke = false;        // shrink datasets, skip timing thresholds
  std::string trace_out;     // --trace-out <path>: dump Chrome trace JSON
};

inline Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      args.trace_out = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      args.trace_out = argv[i] + 12;
    }
  }
  return args;
}

/// The registry a bench binary records its latencies into; one per process.
inline MetricsRegistry* BenchRegistry() {
  static MetricsRegistry registry;
  return &registry;
}

/// Records per-iteration latencies into a BenchRegistry() histogram so
/// benches report the p50/p95 of repeated steps, not just a single total.
class LatencyRecorder {
 public:
  /// `name` should follow the metric scheme, e.g. "dbx_bench_view_step_ms".
  explicit LatencyRecorder(const std::string& name)
      : name_(name), hist_(BenchRegistry()->GetHistogram(name)) {}

  void ObserveMs(double ms) { hist_->Observe(ms); }
  void ObserveNs(uint64_t ns) { hist_->ObserveNs(ns); }

  uint64_t count() const { return hist_->Count(); }

  /// Emits "  <x> <name> p50/p95 ..." rows for the recorded samples.
  void PrintSummary(const std::string& x) const {
    if (hist_->Count() == 0) return;
    Row(x, name_ + " p50", hist_->Quantile(0.5), "ms");
    Row(x, name_ + " p95", hist_->Quantile(0.95), "ms");
  }

 private:
  std::string name_;
  Histogram* hist_;
};

/// Writes `tracer`'s spans as Chrome trace JSON when --trace-out was given;
/// a no-op for an empty path. Returns false (after printing the error) when
/// the write fails, so benches can surface it in their exit code.
inline bool MaybeDumpTrace(const Tracer& tracer, const std::string& path) {
  if (path.empty()) return true;
  Status st = tracer.WriteChromeJson(path);
  if (!st.ok()) {
    std::fprintf(stderr, "trace dump failed: %s\n", st.ToString().c_str());
    return false;
  }
  std::printf("trace: %zu span(s) -> %s (load in chrome://tracing or "
              "https://ui.perfetto.dev)\n",
              tracer.Events().size(), path.c_str());
  return true;
}

}  // namespace dbx::bench
