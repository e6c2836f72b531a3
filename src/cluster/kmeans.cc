#include "src/cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/thread_pool.h"

namespace dbx {

double SquaredDistance(const double* a, const double* b, size_t dims) {
  double d = 0.0;
  for (size_t i = 0; i < dims; ++i) {
    double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

std::vector<size_t> KMeansResult::ClusterSizes() const {
  std::vector<size_t> sizes(k_effective, 0);
  for (int32_t a : assignments) {
    if (a >= 0) ++sizes[static_cast<size_t>(a)];
  }
  return sizes;
}

namespace {

// Rows per partial sum of the inertia. A constant, NOT derived from
// num_threads, so the floating-point summation order — and therefore every
// output — is the same for any thread count.
constexpr size_t kRowChunk = 1024;
// Distinct points per assignment task. Each task writes only its own points'
// slots, so the chunking does not affect the result.
constexpr size_t kPointChunk = 256;

// k-means++ seeding: first centroid uniform, subsequent ones proportional to
// squared distance from the nearest chosen centroid. Seeds are row indices;
// each distance is computed once per distinct point, and the sampling total
// and cumulative pick add it once per row, in row order.
std::vector<size_t> KMeansPlusPlusSeeds(const EncodedMatrix& pts, size_t k,
                                        Rng* rng) {
  std::vector<size_t> seeds;
  seeds.reserve(k);
  size_t n = pts.num_points;
  seeds.push_back(static_cast<size_t>(rng->NextBounded(n)));
  std::vector<double> d2(pts.num_distinct,
                         std::numeric_limits<double>::infinity());
  for (size_t s = 1; s < k; ++s) {
    const double* last = pts.point(seeds.back());
    for (size_t p = 0; p < pts.num_distinct; ++p) {
      double d = SquaredDistance(pts.distinct(p), last, pts.dims);
      if (d < d2[p]) d2[p] = d;
    }
    double total = 0.0;
    for (uint32_t p : pts.point_of) total += d2[p];
    if (total <= 0.0) {
      // All remaining points coincide with a centroid; fall back to uniform.
      seeds.push_back(static_cast<size_t>(rng->NextBounded(n)));
      continue;
    }
    double target = rng->NextDouble() * total;
    double acc = 0.0;
    size_t chosen = n - 1;
    for (size_t i = 0; i < n; ++i) {
      acc += d2[pts.point_of[i]];
      if (target < acc) {
        chosen = i;
        break;
      }
    }
    seeds.push_back(chosen);
  }
  return seeds;
}

}  // namespace

Result<KMeansResult> RunKMeans(const EncodedMatrix& points,
                               const KMeansOptions& options) {
  size_t n = points.num_points;
  if (n == 0) return Status::InvalidArgument("k-means over zero points");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  size_t k = std::min(options.k, n);
  size_t dims = points.dims;
  size_t m = points.num_distinct;

  ScopedSpan span(options.tracer, "kmeans", options.trace_parent);
  span.AddArg("points", static_cast<uint64_t>(n));
  span.AddArg("distinct", static_cast<uint64_t>(m));
  span.AddArg("k", static_cast<uint64_t>(k));
  span.AddArg("dims", static_cast<uint64_t>(dims));

  Rng rng(options.seed);
  KMeansResult res;
  res.k_effective = k;
  res.dims = dims;
  res.centroids.assign(k * dims, 0.0);

  std::vector<size_t> seeds = KMeansPlusPlusSeeds(points, k, &rng);
  for (size_t c = 0; c < k; ++c) {
    const double* src = points.point(seeds[c]);
    std::copy(src, src + dims, res.centroids.data() + c * dims);
  }

  // Nearest centroid of each distinct point and its squared distance. Both
  // depend only on the point, so all rows of a tuple share them.
  std::vector<int32_t> nearest(m, -1);
  std::vector<double> nearest_d2(m);
  std::vector<double> sums(k * dims);
  std::vector<size_t> counts(k);
  double prev_inertia = std::numeric_limits<double>::infinity();

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    res.iterations = iter + 1;
    // Assignment step: one task per chunk of distinct points. Ties go to the
    // lowest centroid index (strict < in centroid order).
    Status st = ParallelFor(
        options.num_threads, 0, (m + kPointChunk - 1) / kPointChunk, 1,
        [&](size_t chunk) -> Status {
          size_t hi = std::min(m, (chunk + 1) * kPointChunk);
          for (size_t p = chunk * kPointChunk; p < hi; ++p) {
            const double* x = points.distinct(p);
            double best = std::numeric_limits<double>::infinity();
            int32_t best_c = 0;
            for (size_t c = 0; c < k; ++c) {
              double d = SquaredDistance(x, res.centroid(c), dims);
              if (d < best) {
                best = d;
                best_c = static_cast<int32_t>(c);
              }
            }
            nearest[p] = best_c;
            nearest_d2[p] = best;
          }
          return Status::OK();
        });
    if (!st.ok()) return st;

    // Inertia adds one term per row: in row order within each row chunk,
    // then the chunk totals in chunk order.
    double inertia = 0.0;
    for (size_t lo = 0; lo < n; lo += kRowChunk) {
      double chunk_inertia = 0.0;
      size_t hi = std::min(n, lo + kRowChunk);
      for (size_t i = lo; i < hi; ++i) {
        chunk_inertia += nearest_d2[points.point_of[i]];
      }
      inertia += chunk_inertia;
    }
    res.inertia = inertia;

    // Centroid sums are integer counts (coordinates are 0 or 1), so adding
    // weight * x once per distinct point is exact in any order.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t p = 0; p < m; ++p) {
      size_t c = static_cast<size_t>(nearest[p]);
      counts[c] += points.weight[p];
      const double w = static_cast<double>(points.weight[p]);
      const double* x = points.distinct(p);
      double* s = sums.data() + c * dims;
      for (size_t d = 0; d < dims; ++d) s[d] += w * x[d];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at the first row farthest from its
        // centroid, as updated so far in this pass.
        std::vector<double> dist(m);
        for (size_t p = 0; p < m; ++p) {
          size_t own = static_cast<size_t>(nearest[p]);
          dist[p] = SquaredDistance(points.distinct(p), res.centroid(own), dims);
        }
        size_t far_i = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < n; ++i) {
          double d = dist[points.point_of[i]];
          if (d > far_d) {
            far_d = d;
            far_i = i;
          }
        }
        const double* src = points.point(far_i);
        std::copy(src, src + dims, res.centroids.data() + c * dims);
        continue;
      }
      double inv = 1.0 / static_cast<double>(counts[c]);
      double* dst = res.centroids.data() + c * dims;
      const double* s = sums.data() + c * dims;
      for (size_t d = 0; d < dims; ++d) dst[d] = s[d] * inv;
    }

    if (prev_inertia - inertia <= options.tolerance * std::max(prev_inertia, 1e-12)) {
      break;
    }
    prev_inertia = inertia;
  }
  res.assignments.resize(n);
  for (size_t i = 0; i < n; ++i) {
    res.assignments[i] = nearest[points.point_of[i]];
  }
  span.AddArg("iterations", static_cast<uint64_t>(res.iterations));
  return res;
}

}  // namespace dbx
