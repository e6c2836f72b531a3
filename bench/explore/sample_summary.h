// Exact latency percentiles over raw samples. Histogram bucket edges make a
// p95 that cannot move until a sample crosses a bucket boundary, so the
// benchmark keeps every sample and ranks them instead.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace dbx::explore {

/// A sorted copy of raw samples with nearest-rank percentiles.
class SampleSummary {
 public:
  /// A percentile is only reported when at least this many samples lie
  /// strictly above its rank; otherwise it would be one of the few slowest
  /// samples rather than a property of the distribution.
  static constexpr size_t kMinBeyond = 10;

  explicit SampleSummary(std::vector<double> samples)
      : sorted_(std::move(samples)) {
    std::sort(sorted_.begin(), sorted_.end());
  }

  size_t count() const { return sorted_.size(); }

  /// Nearest-rank percentile (p in (0, 1]): the smallest sample with at least
  /// p * count samples at or below it. nullopt when fewer than kMinBeyond
  /// samples lie above that rank.
  std::optional<double> Percentile(double p) const {
    if (sorted_.empty()) return std::nullopt;
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(sorted_.size())));
    rank = std::clamp<size_t>(rank, 1, sorted_.size());
    if (sorted_.size() - rank < kMinBeyond) return std::nullopt;
    return sorted_[rank - 1];
  }

 private:
  std::vector<double> sorted_;
};

/// Median of a small set of values (the lower middle for even counts, so the
/// result is always one of the inputs). nullopt for an empty set.
inline std::optional<double> MedianOf(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

}  // namespace dbx::explore
