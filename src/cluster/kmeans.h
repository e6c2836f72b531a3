// Copyright (c) DBExplorer reproduction authors.
// k-means (Lloyd's algorithm with k-means++ seeding) — the paper's candidate
// IUnit generator (§3.1.2: "we use standard k-means ... dynamic variation of
// system parameters to achieve real-time performance").

#pragma once

#include <cstddef>
#include <vector>

#include "src/cluster/encoder.h"
#include "src/obs/trace.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace dbx {

struct KMeansOptions {
  size_t k = 8;
  size_t max_iterations = 50;
  /// Relative inertia improvement below which iteration stops early.
  /// Known defect: the first pass compares against prev_inertia = +inf, and
  /// inf - x <= tolerance * inf holds for any tolerance > 0, so every run
  /// stops after seeding plus one assignment step (ROADMAP item 5).
  double tolerance = 1e-4;
  uint64_t seed = 42;
  /// Parallelism of the assignment step (1 = serial). Each task assigns a
  /// fixed range of distinct points into per-point slots; inertia is summed
  /// per fixed-size row chunk and reduced in chunk order, so the result is
  /// byte-identical for any thread count.
  size_t num_threads = 1;
  /// Observability knobs — output-neutral like num_threads, excluded from
  /// the cache fingerprint. Never null; defaults to the no-op tracer.
  Tracer* tracer = Tracer::Disabled();
  uint64_t trace_parent = 0;
};

struct KMeansResult {
  /// Cluster id per input point, in [0, k_effective).
  std::vector<int32_t> assignments;
  /// Row-major centroids, k_effective x dims.
  std::vector<double> centroids;
  size_t k_effective = 0;
  size_t dims = 0;
  size_t iterations = 0;
  /// Sum of squared distances of points to their centroid.
  double inertia = 0.0;

  const double* centroid(size_t c) const { return centroids.data() + c * dims; }

  /// Point count per cluster.
  std::vector<size_t> ClusterSizes() const;
};

/// Runs k-means over `points`. k is clamped to the number of points; empty
/// input fails. Deterministic for a fixed seed. Distances are computed once
/// per distinct point; every order-sensitive sum still runs over the rows in
/// row order, so the result equals that of clustering each row separately.
[[nodiscard]] Result<KMeansResult> RunKMeans(const EncodedMatrix& points,
                               const KMeansOptions& options);

/// Squared Euclidean distance between two dense vectors of length `dims`.
double SquaredDistance(const double* a, const double* b, size_t dims);

}  // namespace dbx
