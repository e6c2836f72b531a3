#include "src/cluster/cluster_metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dbx {

double SimplifiedSilhouette(const EncodedMatrix& points,
                            const KMeansResult& result) {
  if (result.k_effective < 2 || points.num_points == 0) return 0.0;
  // Distance of each distinct point to every centroid, computed once; the
  // per-row terms still follow each row's own assignment and add in row
  // order.
  const size_t k = result.k_effective;
  std::vector<double> dist(points.num_distinct * k);
  for (size_t p = 0; p < points.num_distinct; ++p) {
    for (size_t c = 0; c < k; ++c) {
      dist[p * k + c] = std::sqrt(SquaredDistance(
          points.distinct(p), result.centroid(c), points.dims));
    }
  }
  double total = 0.0;
  for (size_t i = 0; i < points.num_points; ++i) {
    size_t own = static_cast<size_t>(result.assignments[i]);
    const double* row = dist.data() + size_t{points.point_of[i]} * k;
    double a = row[own];
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      if (c == own) continue;
      b = std::min(b, row[c]);
    }
    double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
  }
  return total / static_cast<double>(points.num_points);
}

double CentroidDispersion(const KMeansResult& result) {
  double total = 0.0;
  for (size_t i = 0; i < result.k_effective; ++i) {
    for (size_t j = i + 1; j < result.k_effective; ++j) {
      total += SquaredDistance(result.centroid(i), result.centroid(j),
                               result.dims);
    }
  }
  return total;
}

std::vector<double> PerClusterInertia(const EncodedMatrix& points,
                                      const KMeansResult& result) {
  const size_t k = result.k_effective;
  std::vector<double> inertia(k, 0.0);
  // Squared distance per (distinct point, cluster), computed on first use;
  // -1 marks one not computed yet.
  std::vector<double> dist(points.num_distinct * k, -1.0);
  for (size_t i = 0; i < points.num_points; ++i) {
    size_t c = static_cast<size_t>(result.assignments[i]);
    size_t p = points.point_of[i];
    double& d = dist[p * k + c];
    if (d < 0.0) {
      d = SquaredDistance(points.distinct(p), result.centroid(c), points.dims);
    }
    inertia[c] += d;
  }
  return inertia;
}

}  // namespace dbx
