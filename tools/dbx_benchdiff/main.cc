// Copyright (c) DBExplorer reproduction authors.
// dbx_benchdiff: compare BENCH_*.json files (or baseline directories)
// against thresholds and exit nonzero on a regression. See benchdiff.h for
// the comparison semantics and DESIGN.md §14 for the workflow.
//
// Usage:
//   dbx_benchdiff --baseline <file|dir> --current <file|dir>
//                 [--threshold 0.20] [--min-abs-ms 0] [--out report.md]
//                 [--seed-regression <key>:<factor>]
//   dbx_benchdiff --self-test
//
// Exit codes: 0 = no regression, 1 = regression (or failed self-test),
// 2 = usage / IO / parse error, or runs under different configs (a config
// leaf such as hardware_threads differs; no verdict table is printed).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "tools/dbx_benchdiff/benchdiff.h"

namespace {

using dbx::benchdiff::DiffBenchJson;
using dbx::benchdiff::DiffOptions;
using dbx::benchdiff::DiffReport;
using dbx::benchdiff::FlatJson;
using dbx::benchdiff::ParseFlatJson;
using dbx::benchdiff::SeedRegression;

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbx_benchdiff --baseline <file|dir> --current <file|dir>\n"
      "                     [--threshold F] [--min-abs-ms F] [--out PATH]\n"
      "                     [--seed-regression KEY:FACTOR]\n"
      "       dbx_benchdiff --self-test\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Pairs of (baseline path, current path) keyed by report name. A file pair
/// is one entry; directories pair their *.json files by basename.
std::map<std::string, std::pair<std::string, std::string>> PairInputs(
    const std::string& baseline, const std::string& current, int* error) {
  namespace fs = std::filesystem;
  std::map<std::string, std::pair<std::string, std::string>> pairs;
  std::error_code ec;
  const bool base_dir = fs::is_directory(baseline, ec);
  const bool cur_dir = fs::is_directory(current, ec);
  if (base_dir != cur_dir) {
    std::fprintf(stderr,
                 "benchdiff: --baseline and --current must both be files or "
                 "both be directories\n");
    *error = 2;
    return pairs;
  }
  if (!base_dir) {
    pairs[fs::path(current).filename().string()] = {baseline, current};
    return pairs;
  }
  for (const auto& entry : fs::directory_iterator(baseline, ec)) {
    if (ec) break;
    const fs::path p = entry.path();
    if (p.extension() != ".json") continue;
    const fs::path cur = fs::path(current) / p.filename();
    if (!fs::exists(cur, ec)) {
      std::fprintf(stderr, "benchdiff: note: no current file for %s, skipped\n",
                   p.filename().string().c_str());
      continue;
    }
    pairs[p.filename().string()] = {p.string(), cur.string()};
  }
  return pairs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_arg;
  std::string current_arg;
  std::string out_path;
  std::string seed_spec;
  DiffOptions options;
  bool self_test = false;

  for (int i = 1; i < argc; ++i) {
    // Accept both "--flag value" and "--flag=value".
    std::string flag = argv[i];
    std::string value;
    bool has_value = false;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    } else if (i + 1 < argc) {
      value = argv[i + 1];
    }
    const auto take = [&] {
      if (!has_value) ++i;
      return value;
    };
    if (flag == "--self-test") {
      self_test = true;
    } else if (flag == "--baseline") {
      baseline_arg = take();
    } else if (flag == "--current") {
      current_arg = take();
    } else if (flag == "--out") {
      out_path = take();
    } else if (flag == "--seed-regression") {
      seed_spec = take();
    } else if (flag == "--threshold") {
      options.threshold = std::strtod(take().c_str(), nullptr);
    } else if (flag == "--min-abs-ms") {
      options.min_abs_ms = std::strtod(take().c_str(), nullptr);
    } else {
      std::fprintf(stderr, "benchdiff: unknown flag '%s'\n", flag.c_str());
      return Usage();
    }
  }

  if (self_test) {
    const dbx::Status st = dbx::benchdiff::RunSelfTest();
    if (!st.ok()) {
      std::fprintf(stderr, "benchdiff self-test FAILED: %s\n",
                   st.message().c_str());
      return 1;
    }
    std::printf("benchdiff self-test ok\n");
    return 0;
  }
  if (baseline_arg.empty() || current_arg.empty()) return Usage();
  if (options.threshold <= 0.0) {
    std::fprintf(stderr, "benchdiff: --threshold must be > 0\n");
    return 2;
  }

  std::string seed_key;
  double seed_factor = 1.0;
  if (!seed_spec.empty()) {
    const size_t colon = seed_spec.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      std::fprintf(stderr,
                   "benchdiff: --seed-regression wants KEY:FACTOR, got '%s'\n",
                   seed_spec.c_str());
      return 2;
    }
    seed_key = seed_spec.substr(0, colon);
    seed_factor = std::strtod(seed_spec.c_str() + colon + 1, nullptr);
    if (seed_factor <= 0.0) {
      std::fprintf(stderr, "benchdiff: seed factor must be > 0\n");
      return 2;
    }
  }

  int error = 0;
  const auto pairs = PairInputs(baseline_arg, current_arg, &error);
  if (error != 0) return error;
  if (pairs.empty()) {
    std::fprintf(stderr, "benchdiff: nothing to compare\n");
    return 2;
  }

  std::string report_md;
  bool any_regression = false;
  bool any_mismatch = false;
  for (const auto& [name, paths] : pairs) {
    std::string base_text;
    std::string cur_text;
    if (!ReadFile(paths.first, &base_text)) {
      std::fprintf(stderr, "benchdiff: cannot read %s\n", paths.first.c_str());
      return 2;
    }
    if (!ReadFile(paths.second, &cur_text)) {
      std::fprintf(stderr, "benchdiff: cannot read %s\n", paths.second.c_str());
      return 2;
    }
    auto base = ParseFlatJson(base_text);
    if (!base.ok()) {
      std::fprintf(stderr, "benchdiff: %s: %s\n", paths.first.c_str(),
                   base.status().message().c_str());
      return 2;
    }
    auto cur = ParseFlatJson(cur_text);
    if (!cur.ok()) {
      std::fprintf(stderr, "benchdiff: %s: %s\n", paths.second.c_str(),
                   cur.status().message().c_str());
      return 2;
    }
    if (!seed_key.empty()) {
      const size_t changed = SeedRegression(&*cur, seed_key, seed_factor);
      std::fprintf(stderr, "benchdiff: seeded %zu '%s' metric(s) x%.3f\n",
                   changed, seed_key.c_str(), seed_factor);
    }
    DiffReport report = DiffBenchJson(*base, *cur, options);
    if (!report.config_mismatch.empty()) {
      std::fprintf(stderr,
                   "benchdiff: %s vs %s: runs under different configs, not "
                   "compared: %s\n",
                   paths.first.c_str(), paths.second.c_str(),
                   report.config_mismatch.c_str());
      any_mismatch = true;
      continue;
    }
    report.baseline_name = paths.first;
    report.current_name = paths.second;
    report_md += report.Markdown() + "\n";
    any_regression = any_regression || report.has_regression();
  }
  if (any_mismatch) return 2;

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "benchdiff: cannot write %s\n", out_path.c_str());
      return 2;
    }
    out << report_md;
  }
  std::fputs(report_md.c_str(), stdout);
  return any_regression ? 1 : 0;
}
