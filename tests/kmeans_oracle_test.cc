// Oracle tests for the k-means kernel. The reference below is the dense,
// row-at-a-time k-means that clustered every row's own one-hot vector:
// encoder, k-means++ seeding, chunk-ordered Lloyd loop, simplified silhouette
// and per-cluster inertia. The production kernel computes each distance once
// per distinct code tuple; its assignments, centroids, inertia, iteration
// count and metrics must match the reference bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/cluster/cluster_metrics.h"
#include "src/cluster/encoder.h"
#include "src/cluster/kmeans.h"
#include "src/data/used_cars.h"
#include "src/util/rng.h"

namespace dbx {
namespace {

// --- Reference: one dense vector per row ----------------------------------------

struct DenseRows {
  size_t n = 0;
  size_t dims = 0;
  std::vector<double> data;  // n * dims
  const double* row(size_t i) const { return data.data() + i * dims; }
};

DenseRows RefEncode(const DiscretizedTable& dt, const std::vector<size_t>& attrs,
                    const std::vector<size_t>& rows) {
  std::vector<size_t> kept, offsets, cards;
  size_t dims = 0;
  for (size_t a : attrs) {
    size_t card = dt.attr(a).cardinality();
    if (card == 0) continue;
    kept.push_back(a);
    offsets.push_back(dims);
    cards.push_back(card);
    dims += card;
  }
  DenseRows m;
  m.n = rows.size();
  m.dims = dims;
  m.data.assign(m.n * dims, 0.0);
  for (size_t p = 0; p < rows.size(); ++p) {
    for (size_t a = 0; a < kept.size(); ++a) {
      int32_t code = dt.attr(kept[a]).codes[rows[p]];
      if (code >= 0 && static_cast<size_t>(code) < cards[a]) {
        m.data[p * dims + offsets[a] + static_cast<size_t>(code)] = 1.0;
      }
    }
  }
  return m;
}

std::vector<size_t> RefSeeds(const DenseRows& pts, size_t k, Rng* rng) {
  std::vector<size_t> seeds;
  size_t n = pts.n;
  seeds.push_back(static_cast<size_t>(rng->NextBounded(n)));
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  for (size_t s = 1; s < k; ++s) {
    const double* last = pts.row(seeds.back());
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double d = SquaredDistance(pts.row(i), last, pts.dims);
      if (d < d2[i]) d2[i] = d;
      total += d2[i];
    }
    if (total <= 0.0) {
      seeds.push_back(static_cast<size_t>(rng->NextBounded(n)));
      continue;
    }
    double target = rng->NextDouble() * total;
    double acc = 0.0;
    size_t chosen = n - 1;
    for (size_t i = 0; i < n; ++i) {
      acc += d2[i];
      if (target < acc) {
        chosen = i;
        break;
      }
    }
    seeds.push_back(chosen);
  }
  return seeds;
}

KMeansResult RefKMeans(const DenseRows& points, const KMeansOptions& options) {
  size_t n = points.n;
  size_t k = std::min(options.k, n);
  size_t dims = points.dims;
  Rng rng(options.seed);
  KMeansResult res;
  res.k_effective = k;
  res.dims = dims;
  res.assignments.assign(n, -1);
  res.centroids.assign(k * dims, 0.0);
  std::vector<size_t> seeds = RefSeeds(points, k, &rng);
  for (size_t c = 0; c < k; ++c) {
    std::copy(points.row(seeds[c]), points.row(seeds[c]) + dims,
              res.centroids.data() + c * dims);
  }
  constexpr size_t kGrain = 1024;
  const size_t num_chunks = (n + kGrain - 1) / kGrain;
  std::vector<double> chunk_inertia(num_chunks);
  std::vector<double> chunk_sums(num_chunks * k * dims);
  std::vector<size_t> chunk_counts(num_chunks * k);
  std::vector<double> sums(k * dims);
  std::vector<size_t> counts(k);
  double prev_inertia = std::numeric_limits<double>::infinity();
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    res.iterations = iter + 1;
    std::fill(chunk_sums.begin(), chunk_sums.end(), 0.0);
    std::fill(chunk_counts.begin(), chunk_counts.end(), 0u);
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      double* my_sums = chunk_sums.data() + chunk * k * dims;
      size_t* my_counts = chunk_counts.data() + chunk * k;
      double local_inertia = 0.0;
      for (size_t i = chunk * kGrain; i < std::min(n, (chunk + 1) * kGrain);
           ++i) {
        const double* p = points.row(i);
        double best = std::numeric_limits<double>::infinity();
        int32_t best_c = 0;
        for (size_t c = 0; c < k; ++c) {
          double d = SquaredDistance(p, res.centroid(c), dims);
          if (d < best) {
            best = d;
            best_c = static_cast<int32_t>(c);
          }
        }
        res.assignments[i] = best_c;
        local_inertia += best;
        double* s = my_sums + static_cast<size_t>(best_c) * dims;
        for (size_t d = 0; d < dims; ++d) s[d] += p[d];
        ++my_counts[static_cast<size_t>(best_c)];
      }
      chunk_inertia[chunk] = local_inertia;
    }
    double inertia = 0.0;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      inertia += chunk_inertia[chunk];
      for (size_t j = 0; j < k * dims; ++j) {
        sums[j] += chunk_sums[chunk * k * dims + j];
      }
      for (size_t c = 0; c < k; ++c) counts[c] += chunk_counts[chunk * k + c];
    }
    res.inertia = inertia;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        size_t far_i = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < n; ++i) {
          size_t ci = static_cast<size_t>(res.assignments[i]);
          double d = SquaredDistance(points.row(i), res.centroid(ci), dims);
          if (d > far_d) {
            far_d = d;
            far_i = i;
          }
        }
        std::copy(points.row(far_i), points.row(far_i) + dims,
                  res.centroids.data() + c * dims);
        continue;
      }
      double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t d = 0; d < dims; ++d) {
        res.centroids[c * dims + d] = sums[c * dims + d] * inv;
      }
    }
    if (prev_inertia - inertia <=
        options.tolerance * std::max(prev_inertia, 1e-12)) {
      break;
    }
    prev_inertia = inertia;
  }
  return res;
}

double RefSilhouette(const DenseRows& points, const KMeansResult& result) {
  if (result.k_effective < 2 || points.n == 0) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < points.n; ++i) {
    size_t own = static_cast<size_t>(result.assignments[i]);
    double a = std::sqrt(
        SquaredDistance(points.row(i), result.centroid(own), points.dims));
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < result.k_effective; ++c) {
      if (c == own) continue;
      b = std::min(b, std::sqrt(SquaredDistance(points.row(i),
                                                result.centroid(c),
                                                points.dims)));
    }
    double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
  }
  return total / static_cast<double>(points.n);
}

std::vector<double> RefPerClusterInertia(const DenseRows& points,
                                         const KMeansResult& result) {
  std::vector<double> inertia(result.k_effective, 0.0);
  for (size_t i = 0; i < points.n; ++i) {
    size_t c = static_cast<size_t>(result.assignments[i]);
    inertia[c] +=
        SquaredDistance(points.row(i), result.centroid(c), points.dims);
  }
  return inertia;
}

// --- Inputs ---------------------------------------------------------------------

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

DiscretizedTable Discretize(const Table& t) {
  return std::move(
             DiscretizedTable::Build(TableSlice::All(t), DiscretizerOptions{}))
      .value();
}

// `rows` rows over `num_attrs` categorical attributes. Each row copies one of
// `distinct` random template tuples (0 = every row its own tuple), with
// `null_every` > 0 nulling one cell in that many rows.
Table CategoricalTable(size_t rows, size_t num_attrs, size_t values,
                       size_t distinct, size_t null_every, uint64_t seed) {
  std::vector<AttributeDef> defs;
  for (size_t a = 0; a < num_attrs; ++a) {
    defs.push_back({"A" + std::to_string(a), AttrType::kCategorical, true});
  }
  Table t(std::move(Schema::Make(defs)).value());
  Rng rng(seed);
  std::vector<std::vector<size_t>> templates(distinct);
  for (auto& tuple : templates) {
    for (size_t a = 0; a < num_attrs; ++a) {
      tuple.push_back(static_cast<size_t>(rng.NextBounded(values)));
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    const std::vector<size_t>* tuple =
        distinct == 0 ? nullptr
                      : &templates[static_cast<size_t>(
                            rng.NextBounded(templates.size()))];
    size_t spelled = r;  // all-distinct rows spell r in base `values`
    for (size_t a = 0; a < num_attrs; ++a) {
      size_t v = tuple == nullptr ? spelled % values : (*tuple)[a];
      spelled /= values;
      if (null_every > 0 && r % null_every == 0 && a == r % num_attrs) {
        row.push_back(Value::Null());
      } else {
        row.push_back(Value("v" + std::to_string(v)));
      }
    }
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

std::vector<size_t> AllRows(const DiscretizedTable& dt) {
  std::vector<size_t> rows(dt.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

std::vector<size_t> AllAttrs(const DiscretizedTable& dt) {
  std::vector<size_t> attrs(dt.num_attrs());
  for (size_t i = 0; i < attrs.size(); ++i) attrs[i] = i;
  return attrs;
}

struct OracleCase {
  std::string name;
  Table table;
  std::vector<std::string> attrs;  // empty = every attribute
  std::vector<size_t> rows;        // empty = every row
  bool repeated;                   // under a tenth of the rows are distinct
};

std::vector<OracleCase> OracleCases() {
  std::vector<OracleCase> cases;
  // Heavily repeated: 3000 rows over 12 tuples and their null variants, so
  // three 1024-row chunks but a single chunk of distinct points.
  cases.push_back(
      {"repeated", CategoricalTable(3000, 3, 4, 12, 7, 1), {}, {}, true});
  // Every row its own tuple (6^4 = 1296 combinations, each used once).
  cases.push_back(
      {"all_distinct", CategoricalTable(1296, 4, 6, 0, 0, 2), {}, {}, false});
  // At most three tuples: any larger k seeds duplicate centroids and
  // re-seeds the empty clusters.
  cases.push_back(
      {"three_tuples", CategoricalTable(2100, 2, 5, 3, 0, 3), {}, {}, true});
  // Production-shaped: binned numerics plus categoricals over a strided
  // subset of rows (positions need not be contiguous).
  Table cars = GenerateUsedCars(4000, 7);
  std::vector<size_t> strided;
  for (size_t i = 0; i < cars.num_rows(); i += 3) strided.push_back(i);
  cases.push_back({"used_cars", std::move(cars),
                   {"Make", "BodyType", "Price", "Year"}, strided, false});
  return cases;
}

void ExpectSameResult(const KMeansResult& got, const KMeansResult& want,
                      const std::string& where) {
  EXPECT_EQ(got.k_effective, want.k_effective) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(Bits(got.inertia), Bits(want.inertia))
      << where << " inertia " << got.inertia << " vs " << want.inertia;
  EXPECT_EQ(got.assignments, want.assignments) << where;
  ASSERT_EQ(got.centroids.size(), want.centroids.size()) << where;
  size_t mismatches = 0;
  for (size_t i = 0; i < got.centroids.size(); ++i) {
    if (Bits(got.centroids[i]) != Bits(want.centroids[i])) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << where;
}

// --- Kernel vs reference ---------------------------------------------------------

TEST(KMeansOracleTest, MatchesDenseReferenceBitForBit) {
  for (const OracleCase& c : OracleCases()) {
    DiscretizedTable dt = Discretize(c.table);
    std::vector<size_t> attrs = AllAttrs(dt);
    if (!c.attrs.empty()) {
      attrs.clear();
      for (const std::string& name : c.attrs) attrs.push_back(*dt.IndexOf(name));
    }
    std::vector<size_t> rows = c.rows.empty() ? AllRows(dt) : c.rows;
    auto enc = OneHotEncoder::Plan(dt, attrs);
    ASSERT_TRUE(enc.ok()) << c.name;
    EncodedMatrix points = enc->Encode(dt, rows);
    DenseRows dense = RefEncode(dt, attrs, rows);
    ASSERT_EQ(points.dims, dense.dims) << c.name;
    ASSERT_EQ(points.num_points, dense.n) << c.name;
    for (size_t i = 0; i < dense.n; ++i) {
      ASSERT_TRUE(std::equal(dense.row(i), dense.row(i) + dense.dims,
                             points.point(i)))
          << c.name << " row " << i;
    }
    if (c.repeated) {
      EXPECT_LT(points.num_distinct * 10, points.num_points) << c.name;
    } else if (c.name == "all_distinct") {
      EXPECT_EQ(points.num_distinct, points.num_points);
    }

    for (size_t k : {size_t{1}, size_t{2}, size_t{5}, size_t{9}}) {
      for (double tolerance : {1e-4, 0.0}) {
        for (uint64_t seed : {uint64_t{3}, uint64_t{42}}) {
          KMeansOptions ko;
          ko.k = k;
          ko.seed = seed;
          ko.tolerance = tolerance;
          ko.max_iterations = 20;
          KMeansResult want = RefKMeans(dense, ko);
          for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
            ko.num_threads = threads;
            const std::string where =
                c.name + " k=" + std::to_string(k) +
                " tol=" + std::to_string(tolerance) +
                " seed=" + std::to_string(seed) +
                " threads=" + std::to_string(threads);
            auto got = RunKMeans(points, ko);
            ASSERT_TRUE(got.ok()) << where << got.status().ToString();
            ExpectSameResult(*got, want, where);
            EXPECT_EQ(Bits(SimplifiedSilhouette(points, *got)),
                      Bits(RefSilhouette(dense, want)))
                << where;
            std::vector<double> per = PerClusterInertia(points, *got);
            std::vector<double> ref_per = RefPerClusterInertia(dense, want);
            ASSERT_EQ(per.size(), ref_per.size()) << where;
            for (size_t j = 0; j < per.size(); ++j) {
              EXPECT_EQ(Bits(per[j]), Bits(ref_per[j])) << where << " c=" << j;
            }
          }
        }
      }
    }
  }
}

TEST(KMeansOracleTest, ToleranceZeroRunsLloydIterations) {
  // The multi-step path: with tolerance 0 the loop runs until inertia stops
  // falling, so at least one run here iterates more than once.
  Table t = CategoricalTable(3000, 3, 4, 40, 0, 5);
  DiscretizedTable dt = Discretize(t);
  std::vector<size_t> attrs = AllAttrs(dt);
  std::vector<size_t> rows = AllRows(dt);
  auto enc = OneHotEncoder::Plan(dt, attrs);
  ASSERT_TRUE(enc.ok());
  EncodedMatrix points = enc->Encode(dt, rows);
  DenseRows dense = RefEncode(dt, attrs, rows);
  size_t max_iterations = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    KMeansOptions ko;
    ko.k = 6;
    ko.seed = seed;
    ko.tolerance = 0.0;
    ko.max_iterations = 20;
    KMeansResult want = RefKMeans(dense, ko);
    auto got = RunKMeans(points, ko);
    ASSERT_TRUE(got.ok());
    ExpectSameResult(*got, want, "seed=" + std::to_string(seed));
    max_iterations = std::max(max_iterations, got->iterations);
  }
  EXPECT_GT(max_iterations, 1u);
}

TEST(KMeansOracleTest, MetricsFollowEachRowsOwnAssignment) {
  // A result whose rows of one tuple sit in different clusters (as when
  // IUnit members are re-scored): the metrics must use each row's own
  // assignment, not one per distinct point.
  Table t = CategoricalTable(2500, 2, 3, 5, 0, 9);
  DiscretizedTable dt = Discretize(t);
  std::vector<size_t> attrs = AllAttrs(dt);
  std::vector<size_t> rows = AllRows(dt);
  auto enc = OneHotEncoder::Plan(dt, attrs);
  ASSERT_TRUE(enc.ok());
  EncodedMatrix points = enc->Encode(dt, rows);
  DenseRows dense = RefEncode(dt, attrs, rows);
  KMeansResult mixed;
  mixed.k_effective = 3;
  mixed.dims = points.dims;
  Rng rng(17);
  for (size_t i = 0; i < points.num_points; ++i) {
    mixed.assignments.push_back(static_cast<int32_t>(rng.NextBounded(3)));
  }
  for (size_t j = 0; j < 3 * points.dims; ++j) {
    mixed.centroids.push_back(rng.NextDouble());
  }
  EXPECT_EQ(Bits(SimplifiedSilhouette(points, mixed)),
            Bits(RefSilhouette(dense, mixed)));
  std::vector<double> per = PerClusterInertia(points, mixed);
  std::vector<double> ref_per = RefPerClusterInertia(dense, mixed);
  ASSERT_EQ(per.size(), ref_per.size());
  for (size_t j = 0; j < per.size(); ++j) {
    EXPECT_EQ(Bits(per[j]), Bits(ref_per[j])) << "c=" << j;
  }
}

}  // namespace
}  // namespace dbx
