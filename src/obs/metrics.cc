#include "src/obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/string_util.h"

namespace dbx {
namespace {

// Prometheus prints integral values without a fraction and everything else
// with enough digits to round-trip visually; FormatDouble(_, 6) covers the
// bucket bounds we use.
std::string MetricNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  std::string s = FormatDouble(v, 6);
  // Trim trailing fractional zeros: "25.500000" -> "25.5".
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(!bounds_.empty());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add(double) needs C++20 library support; a CAS loop is portable.
  double old = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(old, old + value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

std::vector<uint64_t> Histogram::CumulativeCounts() const {
  std::vector<uint64_t> cum(bounds_.size() + 1, 0);
  uint64_t running = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    cum[i] = running;
  }
  return cum;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::vector<uint64_t> cum = CumulativeCounts();
  const uint64_t total = cum.back();
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    if (static_cast<double>(cum[i]) >= target) {
      if (i == bounds_.size()) return bounds_.back();  // overflow bucket
      const double hi = bounds_[i];
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const uint64_t below = i == 0 ? 0 : cum[i - 1];
      const uint64_t in_bucket = cum[i] - below;
      if (in_bucket == 0) return hi;
      const double frac =
          (target - static_cast<double>(below)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return bounds_.back();
}

const std::vector<double>& DefaultLatencyBoundsMs() {
  static const std::vector<double>* bounds = new std::vector<double>{
      0.05, 0.1, 0.25, 0.5, 1,    2.5,  5,     10,    25,    50,
      100,  250, 500,  1000, 2500, 5000, 10000, 30000, 60000};
  return *bounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

std::string MetricsRegistry::PrometheusText() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(counter->Value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(gauge->Value()) + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    out += "# TYPE " + name + " histogram\n";
    const std::vector<uint64_t> cum = hist->CumulativeCounts();
    const std::vector<double>& bounds = hist->bounds();
    for (size_t i = 0; i < bounds.size(); ++i) {
      out += name + "_bucket{le=\"" + MetricNumber(bounds[i]) + "\"} " +
             std::to_string(cum[i]) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cum.back()) + "\n";
    out += name + "_sum " + MetricNumber(hist->Sum()) + "\n";
    out += name + "_count " + std::to_string(hist->Count()) + "\n";
  }
  return out;
}

}  // namespace dbx
