// Microbenchmarks (google-benchmark) for every stage of the CAD View
// pipeline: predicate evaluation, discretization/binning, chi-square feature
// ranking, k-means, IUnit labeling, diversified top-k, Algorithm 1 and
// Algorithm 2, digest building, and the end-to-end build.

#include <benchmark/benchmark.h>

#include "src/cluster/kmeans.h"
#include "src/core/cad_view_builder.h"
#include "src/core/div_topk.h"
#include "src/core/iunit_labeler.h"
#include "src/core/iunit_similarity.h"
#include "src/core/ranked_list_distance.h"
#include "src/data/synthetic.h"
#include "src/data/used_cars.h"
#include "src/facet/facet_index.h"
#include "src/facet/summary_digest.h"
#include "src/relation/predicate.h"
#include "src/stats/feature_selection.h"
#include "src/stats/sampling.h"

namespace dbx {
namespace {

const Table& Cars() {
  static const Table* table = new Table(GenerateUsedCars(40000, 7));
  return *table;
}

const DiscretizedTable& CarsDiscrete() {
  static const DiscretizedTable* dt = new DiscretizedTable(
      std::move(DiscretizedTable::Build(TableSlice::All(Cars()),
                                        DiscretizerOptions{}))
          .value());
  return *dt;
}

void BM_PredicateEvaluate(benchmark::State& state) {
  const Table& cars = Cars();
  TableSlice slice = TableSlice::All(cars);
  for (auto _ : state) {
    std::vector<PredicatePtr> parts;
    parts.push_back(MakeBetween("Mileage", 10000, 30000));
    parts.push_back(MakeCmp("BodyType", CmpOp::kEq, Value("SUV")));
    auto pred = MakeAnd(std::move(parts));
    auto rows = Predicate::Evaluate(pred.get(), slice);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cars.num_rows()));
}
BENCHMARK(BM_PredicateEvaluate);

void BM_Discretize(benchmark::State& state) {
  const Table& cars = Cars();
  RowSet rows = cars.AllRows();
  rows.resize(static_cast<size_t>(state.range(0)));
  TableSlice slice{&cars, rows};
  for (auto _ : state) {
    auto dt = DiscretizedTable::Build(slice, DiscretizerOptions{});
    benchmark::DoNotOptimize(dt);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Discretize)->Arg(5000)->Arg(20000)->Arg(40000);

// The one-off cost BM_Discretize skips after its first iteration: building
// a numeric column's domain (hash, sort, rank remap), which the first
// discretization of every snapshot pays. Price of GenerateUsedCars at 40K
// rows and of ScaledUsedCars at 1M rows.
std::vector<double> UsedCarsPrices() {
  const Column& col = **Cars().ColByName("Price");
  std::vector<double> prices(Cars().num_rows());
  for (size_t r = 0; r < prices.size(); ++r) prices[r] = col.NumberAt(r);
  return prices;
}

std::vector<double> ScaledPrices() {
  ScaledUsedCars gen(1000000);
  std::vector<double> prices(gen.num_rows());
  for (size_t r = 0; r < prices.size(); ++r) {
    prices[r] = gen.GenerateRow(r).price;
  }
  return prices;
}

void BM_NumericDomain(benchmark::State& state,
                      std::vector<double> (*prices_of)()) {
  const std::vector<double> prices = prices_of();
  for (auto _ : state) {
    NumericDomain domain = NumericDomain::Build(prices);
    benchmark::DoNotOptimize(domain);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(prices.size()));
}
BENCHMARK_CAPTURE(BM_NumericDomain, used_cars_40k, &UsedCarsPrices)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NumericDomain, scaled_1m, &ScaledPrices)
    ->Unit(benchmark::kMillisecond);

void BM_VOptimalBinning(benchmark::State& state) {
  const Table& cars = Cars();
  std::vector<double> prices;
  auto col = *cars.ColByName("Price");
  for (size_t r = 0; r < static_cast<size_t>(state.range(0)); ++r) {
    prices.push_back(col->NumberAt(r));
  }
  for (auto _ : state) {
    auto bins = BuildBins(prices, 8, BinStrategy::kVOptimal);
    benchmark::DoNotOptimize(bins);
  }
}
BENCHMARK(BM_VOptimalBinning)->Arg(1000)->Arg(10000);

void BM_ChiSquareRanking(benchmark::State& state) {
  const DiscretizedTable& dt = CarsDiscrete();
  size_t pivot = *dt.IndexOf("Make");
  std::vector<size_t> candidates;
  for (size_t a = 0; a < dt.num_attrs(); ++a) {
    if (a != pivot) candidates.push_back(a);
  }
  const DiscreteAttr& p = dt.attr(pivot);
  for (auto _ : state) {
    auto ranked = RankFeatures(dt, p.codes, p.cardinality(), candidates,
                               FeatureSelectionOptions{});
    benchmark::DoNotOptimize(ranked);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dt.num_rows()));
}
BENCHMARK(BM_ChiSquareRanking);

void BM_KMeans(benchmark::State& state) {
  const DiscretizedTable& dt = CarsDiscrete();
  std::vector<size_t> attrs = {*dt.IndexOf("Model"), *dt.IndexOf("Price"),
                               *dt.IndexOf("Engine"), *dt.IndexOf("Year")};
  auto enc = OneHotEncoder::Plan(dt, attrs);
  std::vector<size_t> positions;
  for (size_t i = 0; i < static_cast<size_t>(state.range(0)); ++i) {
    positions.push_back(i);
  }
  KMeansOptions opt;
  opt.k = 10;
  opt.max_iterations = 20;
  // Encode is timed with the clustering: it deduplicates the code tuples
  // that RunKMeans then visits once each.
  for (auto _ : state) {
    EncodedMatrix m = enc->Encode(dt, positions);
    auto res = RunKMeans(m, opt);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KMeans)->Arg(2000)->Arg(8000)->Arg(20000);

void BM_KMeans_Threads(benchmark::State& state) {
  // Assignment-step parallelism sweep at a fixed point count; output is
  // byte-identical across thread counts by construction.
  const DiscretizedTable& dt = CarsDiscrete();
  std::vector<size_t> attrs = {*dt.IndexOf("Model"), *dt.IndexOf("Price"),
                               *dt.IndexOf("Engine"), *dt.IndexOf("Year")};
  auto enc = OneHotEncoder::Plan(dt, attrs);
  std::vector<size_t> positions;
  for (size_t i = 0; i < 8000; ++i) positions.push_back(i);
  KMeansOptions opt;
  opt.k = 10;
  opt.max_iterations = 20;
  opt.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    EncodedMatrix m = enc->Encode(dt, positions);
    auto res = RunKMeans(m, opt);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * 8000);
}
BENCHMARK(BM_KMeans_Threads)->Arg(1)->Arg(2)->Arg(4);

void BM_LabelCluster(benchmark::State& state) {
  const DiscretizedTable& dt = CarsDiscrete();
  std::vector<size_t> attrs = {*dt.IndexOf("Model"), *dt.IndexOf("Price"),
                               *dt.IndexOf("Engine"), *dt.IndexOf("Year"),
                               *dt.IndexOf("Drivetrain")};
  std::vector<size_t> members;
  for (size_t i = 0; i < 4000; ++i) members.push_back(i);
  for (auto _ : state) {
    auto u = LabelCluster(dt, attrs, members, LabelerOptions{});
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_LabelCluster);

void BM_DivAstar(benchmark::State& state) {
  Rng rng(5);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> scores(n);
  for (double& s : scores) s = 1.0 + rng.NextDouble() * 100.0;
  SimilarityGraph g(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.NextBool(0.3)) g.SetSimilar(i, j);
    }
  }
  for (auto _ : state) {
    auto r = DiversifiedTopK(scores, g, 6, DivTopKAlgorithm::kDivAstar);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DivAstar)->Arg(10)->Arg(15)->Arg(24);

IUnit RandomIUnit(Rng* rng, size_t attrs, size_t card) {
  IUnit u;
  for (size_t a = 0; a < attrs; ++a) {
    std::vector<double> f(card);
    for (double& x : f) x = static_cast<double>(rng->NextBounded(50));
    u.attr_freqs.push_back(std::move(f));
  }
  u.cells.resize(attrs);
  return u;
}

void BM_Algorithm1_IUnitSimilarity(benchmark::State& state) {
  Rng rng(6);
  IUnit a = RandomIUnit(&rng, 5, 20);
  IUnit b = RandomIUnit(&rng, 5, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IUnitSimilarity(a, b));
  }
}
BENCHMARK(BM_Algorithm1_IUnitSimilarity);

void BM_Algorithm2_RankedListDistance(benchmark::State& state) {
  Rng rng(7);
  std::vector<IUnit> tx, ty;
  for (int i = 0; i < 6; ++i) {
    tx.push_back(RandomIUnit(&rng, 5, 20));
    ty.push_back(RandomIUnit(&rng, 5, 20));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(RankedListDistance(tx, ty, 3.5));
  }
}
BENCHMARK(BM_Algorithm2_RankedListDistance);

void BM_BuildDigest(benchmark::State& state) {
  const DiscretizedTable& dt = CarsDiscrete();
  std::vector<size_t> positions;
  for (size_t i = 0; i < static_cast<size_t>(state.range(0)); ++i) {
    positions.push_back(i);
  }
  for (auto _ : state) {
    SummaryDigest d = BuildDigest(dt, positions);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildDigest)->Arg(10000)->Arg(40000);

void BM_ProjectDiscretized(benchmark::State& state) {
  // The interactive fast path: projecting the global discretization onto a
  // selection instead of re-binning the fragment.
  const DiscretizedTable& dt = CarsDiscrete();
  RowSet rows;
  for (uint32_t i = 0; i < dt.num_rows(); i += 2) rows.push_back(i);
  for (auto _ : state) {
    DiscretizedTable p = dt.Project(rows);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_ProjectDiscretized);

void BM_FacetIndexBuild(benchmark::State& state) {
  const DiscretizedTable& dt = CarsDiscrete();
  for (auto _ : state) {
    FacetIndex idx = FacetIndex::Build(dt);
    benchmark::DoNotOptimize(idx);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dt.num_rows()));
}
BENCHMARK(BM_FacetIndexBuild);

void BM_FacetIndexBuild_Threads(benchmark::State& state) {
  const DiscretizedTable& dt = CarsDiscrete();
  size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    FacetIndex idx = FacetIndex::Build(dt, threads);
    benchmark::DoNotOptimize(idx);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dt.num_rows()));
}
BENCHMARK(BM_FacetIndexBuild_Threads)->Arg(2)->Arg(4);

void BM_FacetSelectionEvaluate(benchmark::State& state) {
  const DiscretizedTable& dt = CarsDiscrete();
  static const FacetIndex* idx = new FacetIndex(FacetIndex::Build(dt));
  std::vector<std::vector<int32_t>> sel(dt.num_attrs());
  sel[*dt.IndexOf("BodyType")] = {0};
  sel[*dt.IndexOf("Make")] = {0, 1, 2};
  for (auto _ : state) {
    RowBitmap r = idx->EvaluateSelections(sel);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dt.num_rows()));
}
BENCHMARK(BM_FacetSelectionEvaluate);

void BM_MultiSelectCounts(benchmark::State& state) {
  const DiscretizedTable& dt = CarsDiscrete();
  static const FacetIndex* idx = new FacetIndex(FacetIndex::Build(dt));
  std::vector<std::vector<int32_t>> sel(dt.num_attrs());
  sel[*dt.IndexOf("BodyType")] = {0};
  size_t make = *dt.IndexOf("Make");
  for (auto _ : state) {
    auto counts = idx->MultiSelectCounts(sel, make);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_MultiSelectCounts);

void BM_GroupByAggregate(benchmark::State& state) {
  // Exercised through a scan here (the engine path adds parse overhead).
  const Table& cars = Cars();
  auto make = *cars.ColByName("Make");
  auto price = *cars.ColByName("Price");
  for (auto _ : state) {
    std::vector<double> sums(make->DictSize(), 0.0);
    std::vector<size_t> counts(make->DictSize(), 0);
    for (size_t r = 0; r < cars.num_rows(); ++r) {
      int32_t code = make->CodeAt(r);
      sums[code] += price->NumberAt(r);
      ++counts[code];
    }
    benchmark::DoNotOptimize(sums);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cars.num_rows()));
}
BENCHMARK(BM_GroupByAggregate);

void BM_BuildCadView_EndToEnd(benchmark::State& state) {
  const Table& cars = Cars();
  Rng rng(9);
  RowSet rows = SampleRows(cars.AllRows(),
                           static_cast<size_t>(state.range(0)), &rng);
  TableSlice slice{&cars, rows};
  CadViewOptions opt;
  opt.pivot_attr = "Make";
  opt.pivot_values = {"Toyota", "Honda", "Ford", "Chevrolet", "Jeep"};
  opt.max_compare_attrs = 5;
  opt.iunits_per_value = 3;
  opt.seed = 5;
  for (auto _ : state) {
    auto view = BuildCadView(slice, opt);
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildCadView_EndToEnd)->Arg(5000)->Arg(20000)->Arg(40000);

void BM_BuildCadView_Optimized(benchmark::State& state) {
  const Table& cars = Cars();
  TableSlice slice = TableSlice::All(cars);
  CadViewOptions opt;
  opt.pivot_attr = "Make";
  opt.pivot_values = {"Toyota", "Honda", "Ford", "Chevrolet", "Jeep"};
  opt.max_compare_attrs = 5;
  opt.iunits_per_value = 3;
  opt.feature_selection_sample = 5000;
  opt.clustering_sample = 4000;
  opt.adaptive_l = true;
  opt.seed = 5;
  for (auto _ : state) {
    auto view = BuildCadView(slice, opt);
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_BuildCadView_Optimized);

void BM_BuildCadView_Threads(benchmark::State& state) {
  // End-to-end build with the shared-pool stages (partition fan-out,
  // feature ranking, k-means assignment, similarity graph) at the given
  // thread count.
  const Table& cars = Cars();
  TableSlice slice = TableSlice::All(cars);
  CadViewOptions opt;
  opt.pivot_attr = "Make";
  opt.pivot_values = {"Toyota", "Honda", "Ford", "Chevrolet", "Jeep"};
  opt.max_compare_attrs = 5;
  opt.iunits_per_value = 3;
  opt.seed = 5;
  opt.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto view = BuildCadView(slice, opt);
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cars.num_rows()));
}
BENCHMARK(BM_BuildCadView_Threads)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace dbx

BENCHMARK_MAIN();
