// Tests for the TPFacet two-phase session (paper §5).

#include <gtest/gtest.h>

#include "src/core/cad_view_io.h"
#include "src/data/used_cars.h"
#include "src/explorer/tpfacet_session.h"
#include "src/util/thread_pool.h"

namespace dbx {
namespace {

class TpFacetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { table_ = new Table(GenerateUsedCars(2000, 3)); }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  TpFacetSession MakeSession() {
    CadViewOptions cad;
    cad.max_compare_attrs = 4;
    cad.iunits_per_value = 2;
    cad.seed = 5;
    auto s = TpFacetSession::Create(table_, DiscretizerOptions{}, cad);
    EXPECT_TRUE(s.ok());
    return std::move(*s);
  }

  static Table* table_;
};

Table* TpFacetTest::table_ = nullptr;

TEST_F(TpFacetTest, PhaseToggling) {
  TpFacetSession s = MakeSession();
  EXPECT_EQ(s.phase(), TpFacetPhase::kResults);
  s.TogglePhase();
  EXPECT_EQ(s.phase(), TpFacetPhase::kQueryRevision);
  s.TogglePhase();
  EXPECT_EQ(s.phase(), TpFacetPhase::kResults);
}

TEST_F(TpFacetTest, ViewRequiresPivot) {
  TpFacetSession s = MakeSession();
  EXPECT_TRUE(s.View().status().IsFailedPrecondition());
  EXPECT_TRUE(s.SetPivot("Nope").IsNotFound());
  ASSERT_TRUE(s.SetPivot("Make").ok());
  auto v = s.View();
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ((*v)->pivot_attr, "Make");
}

TEST_F(TpFacetTest, ShardedDefaultsAreOutputTransparent) {
  // The thread count flows into the session via cad_defaults; the view it
  // serves must be byte-identical to a serial session's (timings excluded).
  auto serve = [&](size_t num_threads) {
    CadViewOptions cad;
    cad.max_compare_attrs = 4;
    cad.iunits_per_value = 2;
    cad.seed = 5;
    cad.num_threads = num_threads;
    auto s = TpFacetSession::Create(table_, DiscretizerOptions{}, cad);
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(s->SetPivot("Make").ok());
    s->SetPivotValues({"Ford", "Jeep", "Toyota"});
    auto v = s->View();
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    CadView stable = **v;
    stable.timings = CadViewTimings{};
    return CadViewToJson(stable);
  };
  const std::string serial = serve(1);
  EXPECT_EQ(serve(4), serial);
  EXPECT_EQ(serve(TestThreads(2)), serial);
}

TEST_F(TpFacetTest, ViewReflectsSelections) {
  TpFacetSession s = MakeSession();
  ASSERT_TRUE(s.SetPivot("Make").ok());
  s.SetPivotValues({"Ford", "Jeep"});
  ASSERT_TRUE(s.SelectValue("BodyType", "SUV").ok());
  auto v = s.View();
  ASSERT_TRUE(v.ok());
  ASSERT_EQ((*v)->rows.size(), 2u);
  size_t suv_fords = (*v)->rows[0].pivot_value == "Ford"
                         ? (*v)->rows[0].partition_size
                         : (*v)->rows[1].partition_size;
  // Selecting SUV must shrink the Ford partition vs. the unfiltered table.
  ASSERT_TRUE(s.ClearAttribute("BodyType").ok());
  auto v2 = s.View();
  ASSERT_TRUE(v2.ok());
  size_t all_fords = (*v2)->rows[0].pivot_value == "Ford"
                         ? (*v2)->rows[0].partition_size
                         : (*v2)->rows[1].partition_size;
  EXPECT_LT(suv_fords, all_fords);
}

TEST_F(TpFacetTest, ViewCachedUntilInvalidated) {
  TpFacetSession s = MakeSession();
  ASSERT_TRUE(s.SetPivot("Make").ok());
  auto v1 = s.View();
  ASSERT_TRUE(v1.ok());
  auto v2 = s.View();
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v1, *v2);  // same cached object
  ASSERT_TRUE(s.SelectValue("BodyType", "SUV").ok());
  auto v3 = s.View();
  ASSERT_TRUE(v3.ok());  // rebuilt (pointer may or may not differ; check data)
  EXPECT_LE((*v3)->rows[0].partition_size, (*v1)->rows[0].partition_size);
}

TEST_F(TpFacetTest, ClickIUnitReturnsSimilars) {
  TpFacetSession s = MakeSession();
  ASSERT_TRUE(s.SetPivot("Make").ok());
  s.SetPivotValues({"Ford", "Chevrolet", "Jeep"});
  auto v = s.View();
  ASSERT_TRUE(v.ok());
  auto clicks = s.ClickIUnit("Ford", 0);
  ASSERT_TRUE(clicks.ok()) << clicks.status().ToString();
  for (const IUnitRef& ref : *clicks) {
    EXPECT_GE(ref.similarity, (*v)->tau);
  }
  EXPECT_TRUE(s.ClickIUnit("Nope", 0).status().IsNotFound());
}

TEST_F(TpFacetTest, ClickPivotValueReordersView) {
  TpFacetSession s = MakeSession();
  ASSERT_TRUE(s.SetPivot("Make").ok());
  s.SetPivotValues({"Ford", "Chevrolet", "Jeep"});
  auto ranked = s.ClickPivotValue("Jeep");
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ((*ranked)[0].first, "Jeep");
  auto v = s.View();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)->rows[0].pivot_value, "Jeep");
}

TEST_F(TpFacetTest, OperationCountAggregates) {
  TpFacetSession s = MakeSession();
  size_t c0 = s.operation_count();
  ASSERT_TRUE(s.SelectValue("BodyType", "SUV").ok());
  s.TogglePhase();
  ASSERT_TRUE(s.SetPivot("Make").ok());
  EXPECT_GE(s.operation_count(), c0 + 3);
}

TEST_F(TpFacetTest, UndoRestoresSelections) {
  TpFacetSession s = MakeSession();
  EXPECT_FALSE(s.CanUndo());
  EXPECT_TRUE(s.Undo().IsFailedPrecondition());

  size_t all = s.result_rows().size();
  ASSERT_TRUE(s.SelectValue("BodyType", "SUV").ok());
  size_t suvs = s.result_rows().size();
  ASSERT_TRUE(s.SelectValue("Make", "Ford").ok());
  ASSERT_LT(s.result_rows().size(), suvs);
  EXPECT_EQ(s.history_depth(), 2u);

  ASSERT_TRUE(s.Undo().ok());
  EXPECT_EQ(s.result_rows().size(), suvs);
  ASSERT_TRUE(s.Undo().ok());
  EXPECT_EQ(s.result_rows().size(), all);
  EXPECT_FALSE(s.CanUndo());
}

TEST_F(TpFacetTest, UndoRestoresPivot) {
  TpFacetSession s = MakeSession();
  ASSERT_TRUE(s.SetPivot("Make").ok());
  ASSERT_TRUE(s.SetPivot("BodyType").ok());
  auto v1 = s.View();
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->pivot_attr, "BodyType");
  ASSERT_TRUE(s.Undo().ok());
  auto v2 = s.View();
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ((*v2)->pivot_attr, "Make");
}

TEST_F(TpFacetTest, FailedOperationsLeaveNoHistory) {
  TpFacetSession s = MakeSession();
  EXPECT_FALSE(s.SelectValue("Nope", "x").ok());
  EXPECT_FALSE(s.CanUndo());
}

TEST_F(TpFacetTest, ResultPageRendersTuples) {
  TpFacetSession s = MakeSession();
  ASSERT_TRUE(s.SelectValue("BodyType", "SUV").ok());
  auto page = s.RenderResultPage(0, 5, {"Make", "Price"});
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_NE(page->find("| Make"), std::string::npos);
  EXPECT_NE(page->find("results 1-5 of"), std::string::npos);

  // Past-the-end page is empty but valid.
  auto beyond = s.RenderResultPage(1000000, 5);
  ASSERT_TRUE(beyond.ok());
  EXPECT_NE(beyond->find("of"), std::string::npos);

  EXPECT_TRUE(s.RenderResultPage(0, 5, {"Nope"}).status().IsNotFound());
}

TEST_F(TpFacetTest, BuildTimingsExposed) {
  TpFacetSession s = MakeSession();
  ASSERT_TRUE(s.SetPivot("Make").ok());
  EXPECT_FALSE(s.last_build_timings().has_value());
  ASSERT_TRUE(s.View().ok());
  ASSERT_TRUE(s.last_build_timings().has_value());
  EXPECT_GT(s.last_build_timings()->total_ms, 0.0);
}

TEST_F(TpFacetTest, TracerCollectsViewAndClickSpans) {
  TpFacetSession s = MakeSession();
  Tracer tracer;
  s.SetTracer(&tracer);
  ASSERT_TRUE(s.SetPivot("Make").ok());
  ASSERT_TRUE(s.View().ok());
  ASSERT_TRUE(s.ClickPivotValue("Ford").ok());
  bool saw_probe = false, saw_kmeans = false, saw_click = false;
  for (const TraceEvent& e : tracer.Events()) {
    saw_probe |= e.name == "cache_probe";
    saw_kmeans |= e.name == "kmeans";
    saw_click |= e.name == "click_pivot_value";
  }
  EXPECT_TRUE(saw_probe);
  EXPECT_TRUE(saw_kmeans);
  EXPECT_TRUE(saw_click);
  // Detaching returns View() to the zero-cost disabled path.
  s.SetTracer(nullptr);
  EXPECT_FALSE(s.tracer()->enabled());
}

TEST_F(TpFacetTest, DumpTraceWritesChromeJson) {
  TpFacetSession s = MakeSession();
  EXPECT_TRUE(s.DumpTrace("/ignored").IsFailedPrecondition());  // no tracer
  Tracer tracer;
  s.SetTracer(&tracer);
  ASSERT_TRUE(s.SetPivot("Make").ok());
  ASSERT_TRUE(s.View().ok());
  const std::string path = ::testing::TempDir() + "/tpfacet_trace.json";
  ASSERT_TRUE(s.DumpTrace(path).ok());
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char head[16] = {0};
  size_t n = fread(head, 1, sizeof head - 1, f);
  fclose(f);
  EXPECT_GT(n, 0u);
  EXPECT_EQ(std::string(head).rfind("{\"traceEvents\"", 0), 0u);
}

TEST_F(TpFacetTest, ExplainAnalyzeShowsColdThenWarmPath) {
  TpFacetSession s = MakeSession();
  auto cache = std::make_shared<ViewCache>();
  s.SetViewCache(cache, "cars");
  EXPECT_TRUE(s.ExplainAnalyze().status().IsFailedPrecondition());  // no pivot
  ASSERT_TRUE(s.SetPivot("Make").ok());

  auto cold = s.ExplainAnalyze();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  for (const char* stage : {"tpfacet_view", "cache_probe", "partition",
                            "chi_square", "kmeans", "labeling", "div_topk"}) {
    EXPECT_NE(cold->find(stage), std::string::npos)
        << "missing stage '" << stage << "' in:\n" << *cold;
  }
  EXPECT_NE(cold->find("result=miss"), std::string::npos) << *cold;
  EXPECT_NE(cold->find("cache: hits="), std::string::npos);

  // The first ExplainAnalyze populated the cache; the second hits it.
  auto warm = s.ExplainAnalyze();
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("result=hit"), std::string::npos) << *warm;
  EXPECT_EQ(warm->find("kmeans"), std::string::npos) << *warm;

  ViewCacheSnapshot snapshot = s.CacheSnapshot();
  EXPECT_EQ(snapshot.stats.hits, 1u);
  EXPECT_EQ(snapshot.stats.entries, snapshot.entries.size());
}

TEST_F(TpFacetTest, CacheSnapshotEmptyWithoutCache) {
  TpFacetSession s = MakeSession();
  ViewCacheSnapshot snapshot = s.CacheSnapshot();
  EXPECT_EQ(snapshot.stats.entries, 0u);
  EXPECT_TRUE(snapshot.entries.empty());
}

}  // namespace
}  // namespace dbx
