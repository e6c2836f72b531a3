// Copyright (c) DBExplorer reproduction authors.
// Thread-safe metrics registry: counters, gauges, and fixed-bucket histograms
// with quantile estimation, exported as Prometheus text exposition. Metric
// names follow dbx_<layer>_<name> (see DESIGN.md §10); latency histograms use
// the `_ms` suffix and record milliseconds.
//
// Instruments are created once (registry lookup under a mutex) and then
// updated lock-free via atomics, so hot paths — ParallelFor workers, cache
// probes — pay one relaxed atomic add per update.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace dbx {

/// Monotonically increasing count (events, hits, rows).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed value (entries resident, bytes in use).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram. Bounds are the inclusive upper edges of the finite
/// buckets; one implicit overflow bucket catches the rest. Observations are a
/// relaxed atomic add into one bucket, so concurrent recording from pool
/// workers is safe and cheap.
class Histogram {
 public:
  /// Upper bounds must be strictly ascending and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  /// Records a nanosecond duration as milliseconds — the unit every `_ms`
  /// histogram in the registry uses.
  void ObserveNs(uint64_t nanos) { Observe(static_cast<double>(nanos) / 1e6); }

  uint64_t Count() const;
  double Sum() const;

  /// Quantile estimate (q in [0,1]) by cumulative bucket walk with linear
  /// interpolation inside the containing bucket. Observations in the overflow
  /// bucket clamp to the highest finite bound. Returns 0 when empty.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i]; the final extra entry
  /// is the total count (the +Inf bucket).
  std::vector<uint64_t> CumulativeCounts() const;

 private:
  const std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency bucket edges in milliseconds: sub-ms through minutes,
/// roughly 2x-spaced, matching the paper's interactive-latency regime.
const std::vector<double>& DefaultLatencyBoundsMs();

/// Named instrument store. Get* returns a stable pointer, creating the
/// instrument on first use; instruments are never removed. There is no
/// process-wide instance: the owner of the work (the server's Dispatcher, a
/// bench) holds one and hands it down.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` applies only on first creation; later calls return the existing
  /// histogram regardless of bounds.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds =
                              DefaultLatencyBoundsMs());

  /// Prometheus text exposition (# TYPE lines, _bucket{le=...}, _sum,
  /// _count), families sorted by name for a stable golden output.
  std::string PrometheusText() const;

 private:
  mutable Mutex mu_;
  // The maps are guarded; the instruments they own are internally atomic, so
  // the stable pointers Get* hands out are safe to use without the lock.
  std::map<std::string, std::unique_ptr<Counter>> counters_ DBX_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ DBX_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      DBX_GUARDED_BY(mu_);
};

}  // namespace dbx
