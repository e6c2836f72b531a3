// Copyright (c) DBExplorer reproduction authors.
// dbx-benchdiff (DESIGN.md §14): the flattening JSON parser, metric
// direction classification, regression thresholds (relative + absolute
// floor), the refusal to compare runs under different configs, seeded
// regressions, the built-in self-test, and the markdown verdict rendering.

#include "tools/dbx_benchdiff/benchdiff.h"

#include <gtest/gtest.h>

#include <string>

namespace dbx::benchdiff {
namespace {

// A miniature BENCH_server.json-shaped document.
constexpr char kServerDoc[] = R"({
  "bench": "server_load",
  "smoke": true,
  "sessions": 4,
  "requests": 400,
  "errors": 0,
  "wall_ms": 120.5,
  "qps": 3319.5,
  "p50_ms": 1.2,
  "p95_ms": 2.5,
  "p99_ms": 4.0
})";

// A miniature BENCH_scale.json-shaped document with a nested configs array.
constexpr char kScaleDoc[] = R"({
  "bench": "scale_threads",
  "smoke": false,
  "rows": 40000,
  "mode": "exact",
  "hardware_threads": 4,
  "configs": [
    {"threads": 1, "best_ms": 100.0, "rows_per_sec": 400000.0},
    {"threads": 4, "best_ms": 25.0, "rows_per_sec": 1600000.0}
  ],
  "speedup_max_threads_vs_1": 4.0
})";

TEST(ParseFlatJsonTest, FlattensScalarsAndStrings) {
  auto doc = ParseFlatJson(kServerDoc);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->strings.at("bench"), "server_load");
  EXPECT_EQ(doc->numbers.at("smoke"), 1.0);  // bools land as 0/1
  EXPECT_EQ(doc->numbers.at("requests"), 400.0);
  EXPECT_DOUBLE_EQ(doc->numbers.at("p95_ms"), 2.5);
}

TEST(ParseFlatJsonTest, FlattensNestedArraysToIndexedPaths) {
  auto doc = ParseFlatJson(kScaleDoc);
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->numbers.at("configs.0.best_ms"), 100.0);
  EXPECT_DOUBLE_EQ(doc->numbers.at("configs.1.rows_per_sec"), 1600000.0);
  EXPECT_DOUBLE_EQ(doc->numbers.at("configs.1.threads"), 4.0);
  EXPECT_DOUBLE_EQ(doc->numbers.at("speedup_max_threads_vs_1"), 4.0);
  EXPECT_EQ(doc->numbers.at("smoke"), 0.0);
  EXPECT_EQ(doc->strings.at("mode"), "exact");
}

TEST(ParseFlatJsonTest, HandlesEscapesNullsAndNegatives) {
  auto doc = ParseFlatJson(
      R"({"name": "a\"b", "gone": null, "delta": -2.5e1, "deep": {"x": 1}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->strings.at("name"), "a\"b");
  EXPECT_EQ(doc->strings.count("gone"), 0u);     // nulls dropped
  EXPECT_EQ(doc->numbers.count("gone"), 0u);
  EXPECT_DOUBLE_EQ(doc->numbers.at("delta"), -25.0);
  EXPECT_DOUBLE_EQ(doc->numbers.at("deep.x"), 1.0);
}

TEST(ParseFlatJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseFlatJson("").ok());
  EXPECT_FALSE(ParseFlatJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseFlatJson("{\"a\": 1").ok());
  EXPECT_FALSE(ParseFlatJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseFlatJson("{\"a\": nope}").ok());
  EXPECT_TRUE(ParseFlatJson("").status().IsInvalidArgument());
}

TEST(ClassifyMetricTest, DirectionByLastSegment) {
  EXPECT_EQ(ClassifyMetric("p95_ms"), Direction::kLowerBetter);
  EXPECT_EQ(ClassifyMetric("configs.0.best_ms"), Direction::kLowerBetter);
  EXPECT_EQ(ClassifyMetric("errors"), Direction::kLowerBetter);
  EXPECT_EQ(ClassifyMetric("qps"), Direction::kHigherBetter);
  EXPECT_EQ(ClassifyMetric("configs.1.rows_per_sec"),
            Direction::kHigherBetter);
  EXPECT_EQ(ClassifyMetric("speedup_max_threads_vs_1"),
            Direction::kHigherBetter);
  EXPECT_EQ(ClassifyMetric("smoke"), Direction::kInfo);
  EXPECT_EQ(ClassifyMetric("requests"), Direction::kInfo);
  EXPECT_EQ(ClassifyMetric("rows"), Direction::kInfo);
}

FlatJson MustParse(const std::string& text) {
  auto doc = ParseFlatJson(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return *doc;
}

TEST(DiffBenchJsonTest, IdenticalDocumentsPass) {
  FlatJson doc = MustParse(kServerDoc);
  DiffReport report = DiffBenchJson(doc, doc, DiffOptions{});
  EXPECT_FALSE(report.has_regression());
  EXPECT_TRUE(report.config_mismatch.empty());
  EXPECT_FALSE(report.rows.empty());
  for (const auto& row : report.rows) EXPECT_FALSE(row.regression);
}

TEST(DiffBenchJsonTest, LowerBetterRegressionPastThreshold) {
  FlatJson baseline = MustParse(kServerDoc);
  FlatJson current = baseline;
  current.numbers["p95_ms"] = 2.5 * 1.4;  // +40% > default 20%
  DiffReport report = DiffBenchJson(baseline, current, DiffOptions{});
  EXPECT_TRUE(report.has_regression());
  bool flagged = false;
  for (const auto& row : report.rows) {
    if (row.key == "p95_ms") flagged = row.regression;
  }
  EXPECT_TRUE(flagged);
}

TEST(DiffBenchJsonTest, MinAbsMsFloorSuppressesTinyDeltas) {
  FlatJson baseline = MustParse(kServerDoc);
  FlatJson current = baseline;
  current.numbers["p95_ms"] = 2.5 * 2.0;  // +100% but only +2.5ms absolute
  DiffOptions options;
  options.min_abs_ms = 3.0;
  EXPECT_FALSE(DiffBenchJson(baseline, current, options).has_regression());
  options.min_abs_ms = 2.0;  // under the delta: gates again
  EXPECT_TRUE(DiffBenchJson(baseline, current, options).has_regression());
  // The floor is ms-specific: a non-ms lower-better metric still gates.
  current = baseline;
  current.numbers["errors"] = 1.0;
  options.min_abs_ms = 3.0;
  // errors baseline is 0 -> skipped (no ratio); bump baseline to check.
  baseline.numbers["errors"] = 2.0;
  current.numbers["errors"] = 3.0;  // +50%
  EXPECT_TRUE(DiffBenchJson(baseline, current, options).has_regression());
}

TEST(DiffBenchJsonTest, HigherBetterRegressionOnDrop) {
  FlatJson baseline = MustParse(kServerDoc);
  FlatJson current = baseline;
  current.numbers["qps"] = baseline.numbers["qps"] * 0.7;  // -30%
  DiffReport report = DiffBenchJson(baseline, current, DiffOptions{});
  EXPECT_TRUE(report.has_regression());
  // An improvement never gates.
  current.numbers["qps"] = baseline.numbers["qps"] * 1.5;
  EXPECT_FALSE(DiffBenchJson(baseline, current, DiffOptions{})
                   .has_regression());
}

TEST(DiffBenchJsonTest, ZeroBaselineSkippedWithNote) {
  FlatJson baseline = MustParse(kServerDoc);  // errors: 0
  FlatJson current = baseline;
  current.numbers["errors"] = 5.0;
  DiffReport report = DiffBenchJson(baseline, current, DiffOptions{});
  EXPECT_FALSE(report.has_regression());
  for (const auto& row : report.rows) {
    if (row.key == "errors") {
      EXPECT_FALSE(row.regression);
      EXPECT_FALSE(row.note.empty());
    }
  }
}

TEST(DiffBenchJsonTest, SmokeFlagMismatchRefusesToCompare) {
  FlatJson baseline = MustParse(kServerDoc);  // smoke: true
  FlatJson current = baseline;
  current.numbers["smoke"] = 0.0;             // a full run: not comparable
  current.numbers["p95_ms"] = 250.0;          // would be a huge regression
  DiffReport report = DiffBenchJson(baseline, current, DiffOptions{});
  EXPECT_EQ(report.config_mismatch, "smoke: baseline 1, current 0");
  EXPECT_TRUE(report.rows.empty());
  EXPECT_FALSE(report.has_regression());

  // A config leaf missing from one side differs too.
  current = baseline;
  current.numbers.erase("smoke");
  EXPECT_EQ(DiffBenchJson(baseline, current, DiffOptions{}).config_mismatch,
            "smoke: baseline 1, current absent");
}

TEST(DiffBenchJsonTest, ThreadCountMismatchRefusesToCompare) {
  // A 2-thread host's T=2 timings must not be judged against T=4 ones.
  FlatJson baseline = MustParse(kScaleDoc);
  FlatJson current = baseline;
  current.numbers["configs.1.threads"] = 2.0;
  current.numbers["configs.1.best_ms"] = 50.0;
  DiffReport report = DiffBenchJson(baseline, current, DiffOptions{});
  EXPECT_EQ(report.config_mismatch,
            "configs.1.threads: baseline 4, current 2");
  EXPECT_TRUE(report.rows.empty());

  current = baseline;
  current.numbers["hardware_threads"] = 2.0;
  EXPECT_EQ(DiffBenchJson(baseline, current, DiffOptions{}).config_mismatch,
            "hardware_threads: baseline 4, current 2");

  current = baseline;
  current.strings["mode"] = "sampled";
  EXPECT_EQ(DiffBenchJson(baseline, current, DiffOptions{}).config_mismatch,
            "mode: baseline \"exact\", current \"sampled\"");

  // Equal configs compare as usual.
  EXPECT_TRUE(
      DiffBenchJson(baseline, baseline, DiffOptions{}).config_mismatch.empty());
}

TEST(SeedRegressionTest, MultipliesMatchingMetrics) {
  FlatJson doc = MustParse(kScaleDoc);
  EXPECT_EQ(SeedRegression(&doc, "best_ms", 2.0), 2u);  // both configs
  EXPECT_DOUBLE_EQ(doc.numbers.at("configs.0.best_ms"), 200.0);
  EXPECT_DOUBLE_EQ(doc.numbers.at("configs.1.best_ms"), 50.0);
  // Full-path match works too; unknown keys match nothing.
  EXPECT_EQ(SeedRegression(&doc, "configs.0.best_ms", 2.0), 1u);
  EXPECT_DOUBLE_EQ(doc.numbers.at("configs.0.best_ms"), 400.0);
  EXPECT_EQ(SeedRegression(&doc, "no_such_metric", 2.0), 0u);
}

TEST(SeedRegressionTest, SeededRegressionGatesTheDiff) {
  FlatJson baseline = MustParse(kServerDoc);
  FlatJson current = baseline;
  ASSERT_GT(SeedRegression(&current, "p95_ms", 1.3), 0u);
  EXPECT_TRUE(DiffBenchJson(baseline, current, DiffOptions{})
                  .has_regression());
}

TEST(SelfTest, Passes) { EXPECT_TRUE(RunSelfTest().ok()); }

TEST(MarkdownTest, RendersVerdictTable) {
  FlatJson baseline = MustParse(kServerDoc);
  FlatJson current = baseline;
  current.numbers["p95_ms"] = 10.0;
  DiffReport report = DiffBenchJson(baseline, current, DiffOptions{});
  std::string md = report.Markdown();
  EXPECT_NE(md.find("| metric |"), std::string::npos);
  EXPECT_NE(md.find("p95_ms"), std::string::npos);
  EXPECT_NE(md.find("**REGRESSION**"), std::string::npos);
  EXPECT_NE(md.find("verdict: **REGRESSION**"), std::string::npos);

  DiffReport clean = DiffBenchJson(baseline, baseline, DiffOptions{});
  std::string clean_md = clean.Markdown();
  EXPECT_EQ(clean_md.find("REGRESSION"), std::string::npos);
  EXPECT_NE(clean_md.find("verdict: ok"), std::string::npos);
}

}  // namespace
}  // namespace dbx::benchdiff
