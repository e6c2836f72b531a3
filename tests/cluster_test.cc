// Tests for one-hot encoding, k-means, and cluster metrics.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/cluster/cluster_metrics.h"
#include "src/cluster/encoder.h"
#include "src/cluster/kmeans.h"

namespace dbx {
namespace {

// Two clearly separated groups over two categorical attributes.
Table TwoGroupTable(size_t per_group) {
  Schema s = std::move(Schema::Make({
                           {"A", AttrType::kCategorical, true},
                           {"B", AttrType::kCategorical, true},
                       }))
                 .value();
  Table t(s);
  for (size_t i = 0; i < per_group; ++i) {
    EXPECT_TRUE(t.AppendRow({Value("a1"), Value("b1")}).ok());
    EXPECT_TRUE(t.AppendRow({Value("a2"), Value("b2")}).ok());
  }
  return t;
}

DiscretizedTable Discretize(const Table& t) {
  return std::move(
             DiscretizedTable::Build(TableSlice::All(t), DiscretizerOptions{}))
      .value();
}

std::vector<size_t> AllPositions(const DiscretizedTable& dt) {
  std::vector<size_t> p(dt.num_rows());
  for (size_t i = 0; i < p.size(); ++i) p[i] = i;
  return p;
}

// --- Encoder -------------------------------------------------------------------

TEST(EncoderTest, DimsAndOffsets) {
  Table t = TwoGroupTable(3);
  DiscretizedTable dt = Discretize(t);
  auto enc = OneHotEncoder::Plan(dt, {0, 1});
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->dims(), 4u);  // 2 values per attribute
  EXPECT_EQ(enc->BlockOffset(0), 0u);
  EXPECT_EQ(enc->BlockOffset(1), 2u);
}

TEST(EncoderTest, OneHotRowsSumToAttrCount) {
  Table t = TwoGroupTable(2);
  DiscretizedTable dt = Discretize(t);
  auto enc = OneHotEncoder::Plan(dt, {0, 1});
  ASSERT_TRUE(enc.ok());
  EncodedMatrix m = enc->Encode(dt, AllPositions(dt));
  EXPECT_EQ(m.num_points, 4u);
  for (size_t i = 0; i < m.num_points; ++i) {
    double sum = 0;
    for (size_t d = 0; d < m.dims; ++d) sum += m.point(i)[d];
    EXPECT_DOUBLE_EQ(sum, 2.0);  // one hot per attribute
  }
}

TEST(EncoderTest, NullsEncodeToZeroBlock) {
  Schema s = std::move(Schema::Make({{"A", AttrType::kCategorical, true},
                                     {"B", AttrType::kCategorical, true}}))
                 .value();
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("x"), Value("p")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value("q")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value("q")}).ok());
  DiscretizedTable dt = Discretize(t);
  auto enc = OneHotEncoder::Plan(dt, {0, 1});
  ASSERT_TRUE(enc.ok());
  EncodedMatrix m = enc->Encode(dt, {0, 1, 2});
  EXPECT_DOUBLE_EQ(m.point(1)[0], 0.0);  // A's block (one value) is zero
  EXPECT_DOUBLE_EQ(m.point(1)[2], 1.0);  // B = q
  EXPECT_EQ(m.num_distinct, 2u);
  EXPECT_EQ(m.point_of[1], m.point_of[2]);
}

TEST(EncoderTest, EqualTuplesShareAPoint) {
  Table t = TwoGroupTable(3);  // rows alternate (a1, b1), (a2, b2)
  DiscretizedTable dt = Discretize(t);
  auto enc = OneHotEncoder::Plan(dt, {0, 1});
  ASSERT_TRUE(enc.ok());
  EncodedMatrix m = enc->Encode(dt, {1, 0, 2, 3, 4, 5});
  EXPECT_EQ(m.num_points, 6u);
  EXPECT_EQ(m.num_distinct, 2u);
  // Distinct points are numbered by first appearance: position 0 is row 1.
  EXPECT_EQ(m.point_of, (std::vector<uint32_t>{0, 1, 1, 0, 1, 0}));
  EXPECT_EQ(m.weight, (std::vector<size_t>{3, 3}));
  EXPECT_EQ(m.data.size(), 2 * m.dims);  // one vector per distinct tuple
  EXPECT_DOUBLE_EQ(m.distinct(0)[1], 1.0);  // a2
  EXPECT_DOUBLE_EQ(m.distinct(1)[0], 1.0);  // a1
}

TEST(EncoderTest, WideTuplesDedupExactly) {
  // 12 attributes of 60 values: 61^12 > 2^64 tuple states, so the dedup key
  // spans several words. Rows that differ in any single attribute must stay
  // apart; equal rows must share a point.
  constexpr size_t kAttrs = 12, kValues = 60;
  std::vector<AttributeDef> defs;
  for (size_t a = 0; a < kAttrs; ++a) {
    defs.push_back({"A" + std::to_string(a), AttrType::kCategorical, true});
  }
  Table t(std::move(Schema::Make(defs)).value());
  auto append = [&](const std::vector<size_t>& tuple) {
    std::vector<Value> row;
    for (size_t v : tuple) row.push_back(Value("v" + std::to_string(v)));
    ASSERT_TRUE(t.AppendRow(row).ok());
  };
  for (size_t v = 0; v < kValues; ++v) {
    append(std::vector<size_t>(kAttrs, v));  // every value in every attribute
  }
  Rng rng(8);
  std::vector<std::vector<size_t>> tuples;
  for (size_t i = 0; i < 40; ++i) {
    std::vector<size_t> base(kAttrs);
    for (size_t& v : base) v = static_cast<size_t>(rng.NextBounded(kValues));
    tuples.push_back(base);
    for (size_t a = 0; a < kAttrs; ++a) {  // one-attribute neighbours
      std::vector<size_t> near = base;
      near[a] = (near[a] + 1) % kValues;
      tuples.push_back(near);
    }
  }
  // Their keys (digit code + 1, radix 61) agree modulo 2^64, so a key
  // wrapped into one word would merge these two tuples.
  tuples.push_back({0, 14, 16, 0, 0, 8, 0, 0, 0, 0, 12, 0});
  tuples.push_back({1, 0, 0, 9, 9, 0, 5, 0, 14, 6, 0, 18});
  for (size_t rep = 0; rep < 3; ++rep) {
    for (const auto& tuple : tuples) append(tuple);
  }
  DiscretizedTable dt = Discretize(t);
  std::vector<size_t> attrs(kAttrs);
  for (size_t a = 0; a < kAttrs; ++a) attrs[a] = a;
  auto enc = OneHotEncoder::Plan(dt, attrs);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->dims(), kAttrs * kValues);
  EncodedMatrix m = enc->Encode(dt, AllPositions(dt));

  std::map<std::vector<int32_t>, uint32_t> first_point;
  for (size_t i = 0; i < m.num_points; ++i) {
    std::vector<int32_t> codes;
    for (size_t a : attrs) codes.push_back(dt.attr(a).codes[i]);
    auto [it, fresh] = first_point.emplace(codes, m.point_of[i]);
    EXPECT_EQ(m.point_of[i], it->second) << "row " << i;
    if (fresh) {
      EXPECT_EQ(m.point_of[i], first_point.size() - 1) << "row " << i;
    }
    for (size_t a = 0; a < kAttrs; ++a) {  // the vector is the row's one-hot
      for (size_t v = 0; v < kValues; ++v) {
        EXPECT_EQ(m.point(i)[enc->BlockOffset(a) + v],
                  codes[a] == static_cast<int32_t>(v) ? 1.0 : 0.0);
      }
    }
  }
  EXPECT_EQ(m.num_distinct, first_point.size());
}

TEST(EncoderTest, SkipsAllNullAttrsAndFailsWhenNothingLeft) {
  Schema s = std::move(Schema::Make({{"A", AttrType::kCategorical, true}}))
                 .value();
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  DiscretizedTable dt = Discretize(t);
  EXPECT_TRUE(OneHotEncoder::Plan(dt, {0}).status().IsInvalidArgument());
}

TEST(EncoderTest, OutOfRangeAttr) {
  Table t = TwoGroupTable(1);
  DiscretizedTable dt = Discretize(t);
  EXPECT_TRUE(OneHotEncoder::Plan(dt, {7}).status().IsOutOfRange());
}

// --- KMeans --------------------------------------------------------------------

EncodedMatrix TwoGroupMatrix(size_t per_group) {
  Table t = TwoGroupTable(per_group);
  DiscretizedTable dt = Discretize(t);
  auto enc = OneHotEncoder::Plan(dt, {0, 1});
  return enc->Encode(dt, AllPositions(dt));
}

TEST(KMeansTest, RecoversTwoGroups) {
  EncodedMatrix m = TwoGroupMatrix(20);
  KMeansOptions opt;
  opt.k = 2;
  auto res = RunKMeans(m, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->k_effective, 2u);
  // Perfect separation: inertia 0 and alternating assignment pattern.
  EXPECT_NEAR(res->inertia, 0.0, 1e-9);
  for (size_t i = 2; i < m.num_points; ++i) {
    EXPECT_EQ(res->assignments[i], res->assignments[i % 2]);
  }
  EXPECT_NE(res->assignments[0], res->assignments[1]);
}

TEST(KMeansTest, AssignmentsValidAndSizesSum) {
  EncodedMatrix m = TwoGroupMatrix(10);
  KMeansOptions opt;
  opt.k = 3;
  auto res = RunKMeans(m, opt);
  ASSERT_TRUE(res.ok());
  auto sizes = res->ClusterSizes();
  size_t total = 0;
  for (size_t s : sizes) total += s;
  EXPECT_EQ(total, m.num_points);
  for (int32_t a : res->assignments) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, static_cast<int32_t>(res->k_effective));
  }
}

TEST(KMeansTest, KClampedToPointCount) {
  EncodedMatrix m = TwoGroupMatrix(1);  // 2 points
  KMeansOptions opt;
  opt.k = 10;
  auto res = RunKMeans(m, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->k_effective, 2u);
}

TEST(KMeansTest, DeterministicForSeed) {
  EncodedMatrix m = TwoGroupMatrix(25);
  KMeansOptions opt;
  opt.k = 4;
  opt.seed = 77;
  auto a = RunKMeans(m, opt);
  auto b = RunKMeans(m, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_EQ(a->centroids, b->centroids);
}

TEST(KMeansTest, Errors) {
  EncodedMatrix empty;
  empty.dims = 3;
  EXPECT_TRUE(RunKMeans(empty, KMeansOptions{}).status().IsInvalidArgument());
  EncodedMatrix m = TwoGroupMatrix(2);
  KMeansOptions opt;
  opt.k = 0;
  EXPECT_TRUE(RunKMeans(m, opt).status().IsInvalidArgument());
}

TEST(KMeansTest, MoreClustersNeverIncreaseInertia) {
  // Mixed data with some noise.
  Schema s = std::move(Schema::Make({
                           {"A", AttrType::kCategorical, true},
                           {"B", AttrType::kCategorical, true},
                       }))
                 .value();
  Table t(s);
  Rng rng(4);
  const char* as[] = {"a1", "a2", "a3", "a4"};
  const char* bs[] = {"b1", "b2", "b3"};
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(as[rng.NextBounded(4)]),
                             Value(bs[rng.NextBounded(3)])})
                    .ok());
  }
  DiscretizedTable dt = Discretize(t);
  auto enc = OneHotEncoder::Plan(dt, {0, 1});
  EncodedMatrix m = enc->Encode(dt, AllPositions(dt));

  double prev = 1e18;
  for (size_t k : {1u, 2u, 4u, 8u}) {
    KMeansOptions opt;
    opt.k = k;
    opt.max_iterations = 100;
    auto res = RunKMeans(m, opt);
    ASSERT_TRUE(res.ok());
    EXPECT_LE(res->inertia, prev + 1e-6) << "k=" << k;
    prev = res->inertia;
  }
}

// --- Metrics -------------------------------------------------------------------

TEST(ClusterMetricsTest, SilhouetteHighForSeparatedGroups) {
  EncodedMatrix m = TwoGroupMatrix(20);
  KMeansOptions opt;
  opt.k = 2;
  auto res = RunKMeans(m, opt);
  ASSERT_TRUE(res.ok());
  double sil = SimplifiedSilhouette(m, *res);
  EXPECT_GT(sil, 0.9);
  EXPECT_LE(sil, 1.0);
}

TEST(ClusterMetricsTest, SilhouetteZeroForSingleCluster) {
  EncodedMatrix m = TwoGroupMatrix(5);
  KMeansOptions opt;
  opt.k = 1;
  auto res = RunKMeans(m, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_DOUBLE_EQ(SimplifiedSilhouette(m, *res), 0.0);
}

TEST(ClusterMetricsTest, PerClusterInertiaSumsToTotal) {
  EncodedMatrix m = TwoGroupMatrix(15);
  KMeansOptions opt;
  opt.k = 3;
  auto res = RunKMeans(m, opt);
  ASSERT_TRUE(res.ok());
  auto per = PerClusterInertia(m, *res);
  double sum = 0;
  for (double x : per) sum += x;
  EXPECT_NEAR(sum, res->inertia, 1e-9);
}

TEST(ClusterMetricsTest, DispersionPositiveForDistinctCentroids) {
  EncodedMatrix m = TwoGroupMatrix(10);
  KMeansOptions opt;
  opt.k = 2;
  auto res = RunKMeans(m, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(CentroidDispersion(*res), 0.0);
}

}  // namespace
}  // namespace dbx
