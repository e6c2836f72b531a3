// Golden hashes for the CAD View build pipeline: the 64-bit FNV-1a hash of
// each build's serialized bytes (timings zeroed), over fixed seeded data.
// The identity suites compare one build configuration against another, so
// they cannot see a change that every configuration shares; these pinned
// values can. They cover each partition, ranking and fallback route the
// builder takes: default options, explicit pivot values (absent and
// repeated), Optimization 1's sampled ranking, the no-significant-attribute
// fallback, a 4-thread build, and a build over a fragment projected from the
// full-table discretization, the way TpFacetSession builds one.
//
// The expected values were recorded once and are never edited. A mismatch
// means the build's output bytes changed.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cad_view_builder.h"
#include "src/core/cad_view_io.h"
#include "src/data/mushroom.h"
#include "src/data/used_cars.h"
#include "src/stats/feature_selection.h"

namespace dbx {
namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h);
  return buf;
}

uint64_t ViewHash(CadView view) {
  view.timings = CadViewTimings{};
  return Fnv1a(CadViewToJson(view) + "\n---\n" + CadViewToCsv(view));
}

const Table& Cars() {
  static const Table* table = new Table(GenerateUsedCars(4000, 7));
  return *table;
}

const Table& Mushrooms() {
  static const Table* table = new Table(GenerateMushrooms(2000));
  return *table;
}

/// Rows whose categorical `attr` equals `value`, restricted to `within`.
RowSet RowsWhere(const Table& t, const RowSet& within, const std::string& attr,
                 const std::string& value) {
  const Column& col = t.col(*t.schema().IndexOf(attr));
  const int32_t code = col.CodeOf(value);
  RowSet out;
  for (uint32_t r : within) {
    if (col.CodeAt(r) == code) out.push_back(r);
  }
  return out;
}

/// Every `step`-th row: a small fragment whose chi-square tests stay weak.
RowSet EveryNth(const Table& t, uint32_t step) {
  RowSet out;
  for (uint32_t r = 0; r < t.num_rows(); r += step) out.push_back(r);
  return out;
}

uint64_t BuildHash(const Table& t, RowSet rows, const CadViewOptions& o) {
  auto view = BuildCadView(TableSlice{&t, std::move(rows)}, o);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return view.ok() ? ViewHash(std::move(*view)) : 0;
}

/// A build over `rows` projected from the full-table discretization, as
/// TpFacetSession builds: codes index the whole table's domain.
uint64_t ProjectedBuildHash(const Table& t, const RowSet& rows,
                            const CadViewOptions& o) {
  auto dt = DiscretizedTable::Build(TableSlice::All(t), o.discretizer);
  EXPECT_TRUE(dt.ok()) << dt.status().ToString();
  if (!dt.ok()) return 0;
  auto view = BuildCadViewFromDiscretized(dt->Project(rows), o);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return view.ok() ? ViewHash(std::move(*view)) : 0;
}

/// True when the view's compare attributes came from the fallback ranking:
/// at least one of them fails the significance threshold.
bool UsedFallback(const Table& t, RowSet rows, const CadViewOptions& o) {
  auto view = BuildCadView(TableSlice{&t, std::move(rows)}, o);
  if (!view.ok()) return false;
  for (const CompareAttribute& ca : view->compare_attrs) {
    if (ca.p_value > o.feature_selection.significance) return true;
  }
  return false;
}

CadViewOptions CarOptions() {
  CadViewOptions o;
  o.pivot_attr = "Make";
  return o;
}

CadViewOptions MushroomOptions() {
  CadViewOptions o;
  o.pivot_attr = "Class";
  return o;
}

struct Golden {
  const char* name;
  uint64_t actual;
  uint64_t expected;
};

void ExpectGoldens(const std::vector<Golden>& goldens) {
  for (const Golden& g : goldens) {
    EXPECT_EQ(Hex(g.actual), Hex(g.expected)) << g.name;
  }
}

TEST(BuildGoldenTest, UsedCarsBuilds) {
  const Table& t = Cars();
  const RowSet all = t.AllRows();

  CadViewOptions explicit_values = CarOptions();
  explicit_values.pivot_values = {"Ford", "NoSuchMake", "Jeep", "Ford"};

  CadViewOptions sampled = CarOptions();
  sampled.feature_selection_sample = 600;

  CadViewOptions fallback = CarOptions();
  fallback.pivot_attr = "Color";
  fallback.feature_selection.significance = 1e-12;
  const RowSet sparse = EveryNth(t, 50);
  ASSERT_TRUE(UsedFallback(t, sparse, fallback));
  CadViewOptions fallback_sampled = fallback;
  fallback_sampled.feature_selection_sample = 40;
  ASSERT_TRUE(UsedFallback(t, sparse, fallback_sampled));

  CadViewOptions threaded = CarOptions();
  threaded.num_threads = 4;
  CadViewOptions threaded_sampled = threaded;
  threaded_sampled.feature_selection_sample = 600;

  const RowSet suvs = RowsWhere(t, all, "BodyType", "SUV");
  const RowSet suvs_4wd = RowsWhere(t, suvs, "Drivetrain", "4WD");
  CadViewOptions projected_values = CarOptions();
  projected_values.pivot_values = {"Jeep", "Ford", "NoSuchMake", "Jeep"};

  ExpectGoldens({
      {"default", BuildHash(t, all, CarOptions()), 0x831ab0e85d9d1764},
      {"explicit_values", BuildHash(t, all, explicit_values),
       0x902e61f9e10f0c0a},
      {"sampled_ranking", BuildHash(t, all, sampled), 0x489d78e00d7f84be},
      {"fallback", BuildHash(t, sparse, fallback), 0x4cf3aebf5da200e4},
      {"fallback_sampled", BuildHash(t, sparse, fallback_sampled),
       0x4cf3aebf5da200e4},
      {"threaded", BuildHash(t, all, threaded), 0x831ab0e85d9d1764},
      {"threaded_sampled", BuildHash(t, all, threaded_sampled),
       0x489d78e00d7f84be},
      {"projected_refinement", ProjectedBuildHash(t, suvs_4wd, CarOptions()),
       0x03728af8ea0015e7},
      {"projected_explicit_values",
       ProjectedBuildHash(t, suvs_4wd, projected_values), 0xed911ecbb4c9cb0a},
  });
}

TEST(BuildGoldenTest, MushroomBuilds) {
  const Table& t = Mushrooms();
  const RowSet all = t.AllRows();

  CadViewOptions explicit_values = MushroomOptions();
  explicit_values.pivot_attr = "Odor";
  explicit_values.pivot_values = {"none", "nosuch", "foul", "none"};

  CadViewOptions sampled = MushroomOptions();
  sampled.feature_selection_sample = 600;

  CadViewOptions fallback = MushroomOptions();
  fallback.pivot_attr = "CapShape";
  fallback.feature_selection.significance = 1e-12;
  const RowSet sparse = EveryNth(t, 40);
  ASSERT_TRUE(UsedFallback(t, sparse, fallback));

  CadViewOptions threaded = MushroomOptions();
  threaded.num_threads = 4;

  const RowSet bruised = RowsWhere(t, all, "Bruises", "true");
  const RowSet bruised_broad = RowsWhere(t, bruised, "GillSize", "broad");

  ExpectGoldens({
      {"default", BuildHash(t, all, MushroomOptions()), 0x534ca5bc23bcfaa6},
      {"explicit_values", BuildHash(t, all, explicit_values),
       0x6b493401e1f1665d},
      {"sampled_ranking", BuildHash(t, all, sampled), 0x61d987d068fb8e7e},
      {"fallback", BuildHash(t, sparse, fallback), 0xfd0a8f37ba01dfe7},
      {"threaded", BuildHash(t, all, threaded), 0x534ca5bc23bcfaa6},
      {"projected_refinement",
       ProjectedBuildHash(t, bruised_broad, MushroomOptions()),
       0x86801be9de18317b},
  });
}

/// Hash of RankFeatures' full ranked output (order and every score field)
/// for the pivot `pivot_attr` over the whole table.
uint64_t RankingHash(const Table& t, const std::string& pivot_attr,
                     FeatureRanker ranker, size_t threads) {
  auto dt = DiscretizedTable::Build(TableSlice::All(t), DiscretizerOptions{});
  EXPECT_TRUE(dt.ok());
  if (!dt.ok()) return 0;
  const size_t pivot = *dt->IndexOf(pivot_attr);
  std::vector<size_t> candidates;
  for (size_t a = 0; a < dt->num_attrs(); ++a) {
    if (a != pivot) candidates.push_back(a);
  }
  FeatureSelectionOptions fo;
  fo.ranker = ranker;
  fo.num_threads = threads;
  auto ranked = RankFeatures(*dt, dt->attr(pivot).codes,
                             dt->attr(pivot).cardinality(), candidates, fo);
  EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
  if (!ranked.ok()) return 0;
  std::string bytes;
  for (const FeatureScore& fs : *ranked) {
    char line[256];
    std::snprintf(line, sizeof(line), "%zu %s %.17g %.17g %.17g %.17g %d\n",
                  fs.attr_index, fs.name.c_str(), fs.score, fs.chi2, fs.df,
                  fs.p_value, fs.significant ? 1 : 0);
    bytes += line;
  }
  return Fnv1a(bytes);
}

TEST(BuildGoldenTest, RankFeaturesOrder) {
  struct Expected {
    FeatureRanker ranker;
    uint64_t cars;
    uint64_t mushrooms;
  };
  const std::vector<Expected> expected = {
      {FeatureRanker::kChiSquare, 0x8a24843ecd6a49e5, 0x728e9560b0860978},
      {FeatureRanker::kMutualInformation, 0xf7ac50a5c2f3c4cc,
       0xbc0b127c6aedc6ad},
      {FeatureRanker::kCramersV, 0xb6b83aba37d22dda, 0xbb2ec528d51cd56d},
  };
  for (const Expected& e : expected) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string where = std::string(FeatureRankerName(e.ranker)) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(Hex(RankingHash(Cars(), "Make", e.ranker, threads)),
                Hex(e.cars))
          << "cars " << where;
      EXPECT_EQ(Hex(RankingHash(Mushrooms(), "Class", e.ranker, threads)),
                Hex(e.mushrooms))
          << "mushrooms " << where;
    }
  }
}

}  // namespace
}  // namespace dbx
