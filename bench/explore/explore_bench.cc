// explore_bench: seeded CADVIEW workloads sent through the loopback server
// (Client -> transport -> Dispatcher -> Engine -> builder), with end-to-end
// metrics measured untraced and a traced replay split into per-layer times.
// See README.md in this directory for the workloads, metrics and bounds.
//
//   explore_bench --workload <w> --seed <n> --seconds <s> --trace <0|1>
//       one run; the last stdout line is {"correct", "attempted", "failed",
//       "metrics"}
//   explore_bench --all --seed <n> --out run.json
//   explore_bench --traced --seed <n> --out layers.json --trace-out trace.json
//       every workload, each in its own process (so peak RSS is per workload)
//   explore_bench --compare a.json b.json
//       a verdict per (workload, end-to-end metric) under BENCHMARK.json's
//       bounds; exits 1 on any regression
//   explore_bench --dump-statements --seed <n> [--workload <w>]
//   explore_bench --smoke-test --benchmark-json BENCHMARK.json

#include <spawn.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/explore/runner.h"
#include "bench/explore/workloads.h"
#include "src/core/cad_view_io.h"
#include "src/util/string_util.h"
#include "tools/dbx_benchdiff/benchdiff.h"

extern char** environ;

namespace dbx::explore {
namespace {

namespace fs = std::filesystem;

/// --smoke shrinks the data (Scale) and the window: about 50 statements on
/// the slowest workload.
constexpr double kSmokeSeconds = 1.0;
/// Requests per client that --dump-statements prints.
constexpr size_t kDumpRequests = 40;

struct Cli {
  std::string mode = "run";  // run | all | traced | compare | dump | smoke-test
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  bool smoke = false;
  uint64_t inject_delay_us = 0;
  std::string out;
  std::string detail_out;
  std::string trace_out;
  std::string tmp_dir = "explore_bench.tmp";
  std::string benchmark_json = "BENCHMARK.json";
  std::vector<std::string> positional;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "explore_bench: %s\n"
               "usage: explore_bench --workload <w> [--seed n] [--seconds s] "
               "[--trace 0|1] [--out f] [--trace-out f] [--inject-delay-us n] "
               "[--smoke]\n"
               "       explore_bench --all|--traced [--seed n] [--seconds s] "
               "--out f [--trace-out f] [--smoke]\n"
               "       explore_bench --compare a.json b.json "
               "[--benchmark-json f]\n"
               "       explore_bench --dump-statements [--seed n] "
               "[--workload w] [--smoke]\n"
               "       explore_bench --smoke-test [--benchmark-json f]\n",
               why);
  return 2;
}

bool ParseCli(int argc, char** argv, Cli* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--all") {
      cli->mode = "all";
    } else if (arg == "--traced") {
      cli->mode = "traced";
    } else if (arg == "--compare") {
      cli->mode = "compare";
    } else if (arg == "--dump-statements") {
      cli->mode = "dump";
    } else if (arg == "--smoke-test") {
      cli->mode = "smoke-test";
    } else if (arg == "--smoke") {
      cli->smoke = true;
    } else if (arg.rfind("--", 0) != 0) {
      cli->positional.push_back(arg);
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (arg == "--workload") {
      cli->workload = v;
    } else if (arg == "--seed") {
      cli->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cli->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      cli->trace = std::atoi(v);
    } else if (arg == "--inject-delay-us") {
      cli->inject_delay_us = std::strtoull(v, nullptr, 10);
    } else if (arg == "--out") {
      cli->out = v;
    } else if (arg == "--detail-out") {
      cli->detail_out = v;
    } else if (arg == "--trace-out") {
      cli->trace_out = v;
    } else if (arg == "--tmp-dir") {
      cli->tmp_dir = v;
    } else if (arg == "--benchmark-json") {
      cli->benchmark_json = v;
    } else {
      return false;
    }
  }
  return cli->seconds > 0 && (cli->trace == 0 || cli->trace == 1);
}

// --- JSON output -------------------------------------------------------------

std::string Num(std::optional<double> v) {
  if (!v || !std::isfinite(*v)) return "null";
  return StringPrintf("%.17g", *v);
}

std::string Str(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

/// The result line, the last of standard output: exactly correct,
/// attempted, failed and metrics, each metric a value and a unit.
std::string ResultLine(const RunResult& r) {
  std::string out = StringPrintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i ? ", " : "") + Str(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Str(m.unit) + "}";
  }
  return out + "}}";
}

/// Everything one run measured, for --out files and --compare.
std::string DetailJson(const WorkloadSpec& spec, const Cli& cli,
                       const RunResult& r) {
  const double error_ratio =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::string out = StringPrintf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"smoke\": %s, "
      "\"seconds\": %s, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"error_ratio\": %s, \"metrics\": {",
      Str(spec.name).c_str(), static_cast<unsigned long long>(cli.seed),
      cli.trace, cli.smoke ? "true" : "false", Num(cli.seconds).c_str(),
      r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), Num(error_ratio).c_str());
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i ? ", " : "") + Str(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Str(m.unit) +
           StringPrintf(", \"samples\": %zu", m.samples);
    if (!m.reps.empty()) {
      out += ", \"reps\": [";
      for (size_t k = 0; k < m.reps.size(); ++k) {
        out += (k ? ", " : "") + Num(m.reps[k]);
      }
      out += "], \"spread\": " + Num(m.spread);
    }
    if (m.share) out += ", \"share\": " + Num(m.share);
    if (!m.value) {
      out += ", \"note\": " +
             Str("fewer than 10 samples beyond this percentile; not reported");
    }
    out += "}";
  }
  out += "}, \"info\": {";
  for (size_t i = 0; i < r.info.size(); ++i) {
    out += (i ? ", " : "") + Str(r.info[i].first) + ": " + Num(r.info[i].second);
  }
  out += "}, \"notes\": [";
  for (size_t i = 0; i < r.notes.size(); ++i) {
    out += (i ? ", " : "") + Str(r.notes[i]);
  }
  return out + "]}";
}

std::string Wrap(const Cli& cli,
                 const std::vector<std::pair<std::string, std::string>>& details) {
  std::string out = StringPrintf(
      "{\"bench\": \"explore_bench\", \"seed\": %llu, \"smoke\": %s, "
      "\"workloads\": {",
      static_cast<unsigned long long>(cli.seed), cli.smoke ? "true" : "false");
  for (size_t i = 0; i < details.size(); ++i) {
    out += (i ? ", " : "") + Str(details[i].first) + ": " + details[i].second;
  }
  return out + "}}\n";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

// --- Modes -------------------------------------------------------------------

int RunOne(const Cli& cli) {
  const WorkloadSpec* spec = FindWorkload(cli.workload);
  if (spec == nullptr) return Usage(("unknown workload '" + cli.workload + "'").c_str());
  RunOptions opt;
  opt.seed = cli.seed;
  opt.seconds = cli.smoke ? kSmokeSeconds : cli.seconds;
  opt.trace = cli.trace == 1;
  opt.scale = cli.smoke ? SmokeScale() : FullScale();
  opt.inject_delay_us = cli.inject_delay_us;
  opt.tmp_dir = cli.tmp_dir;
  opt.trace_out = cli.trace_out;
  const RunResult r = RunWorkload(*spec, opt);

  std::printf("%s seed=%llu trace=%d clients=%zu build_threads=%zu\n",
              spec->name, static_cast<unsigned long long>(cli.seed), cli.trace,
              spec->clients, spec->build_threads);
  for (const Metric& m : r.metrics) {
    std::printf("  %-34s %14s %-6s n=%zu%s\n", m.name.c_str(),
                m.value ? StringPrintf("%.4f", *m.value).c_str() : "null",
                m.unit.c_str(), m.samples,
                m.share ? StringPrintf("  share=%.1f%%", 100 * *m.share).c_str()
                        : "");
  }
  for (const auto& [name, v] : r.info) {
    std::printf("  (info) %-27s %14.4f\n", name.c_str(), v);
  }
  for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());
  const std::string detail = DetailJson(*spec, cli, r);
  if (!cli.detail_out.empty() && !WriteFile(cli.detail_out, detail)) {
    std::fprintf(stderr, "cannot write %s\n", cli.detail_out.c_str());
    return 1;
  }
  if (!cli.out.empty() && !WriteFile(cli.out, Wrap(cli, {{spec->name, detail}}))) {
    std::fprintf(stderr, "cannot write %s\n", cli.out.c_str());
    return 1;
  }
  std::error_code ec;
  fs::remove(cli.tmp_dir, ec);  // only when empty: a parent may share it
  std::printf("%s\n", ResultLine(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

int Spawn(const std::string& self, const std::vector<std::string>& args) {
  std::vector<std::string> all = {self};
  all.insert(all.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : all) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  pid_t pid = 0;
  if (posix_spawnp(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                   environ) != 0) {
    return 127;
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return 127;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

/// Suffixes `path` before its extension: trace.json -> trace.cold_build.json.
std::string PerWorkloadPath(const std::string& path, const std::string& name) {
  const fs::path p(path);
  return (p.parent_path() / (p.stem().string() + "." + name + p.extension().string()))
      .string();
}

/// --all / --traced: every workload in its own process, merged into --out.
int RunEvery(const std::string& self, const Cli& cli) {
  fs::create_directories(cli.tmp_dir);
  std::vector<std::pair<std::string, std::string>> details;
  int rc = 0;
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const std::string detail_path =
        cli.tmp_dir + "/" + spec.name + (cli.mode == "traced" ? ".layers" : ".run") + ".json";
    std::vector<std::string> args = {
        "--workload", spec.name, "--seed", std::to_string(cli.seed),
        "--seconds", Num(cli.seconds), "--trace", cli.mode == "traced" ? "1" : "0",
        "--detail-out", detail_path, "--tmp-dir", cli.tmp_dir};
    if (cli.smoke) args.push_back("--smoke");
    if (cli.inject_delay_us > 0) {
      args.insert(args.end(), {"--inject-delay-us", std::to_string(cli.inject_delay_us)});
    }
    if (!cli.trace_out.empty()) {
      args.insert(args.end(), {"--trace-out", PerWorkloadPath(cli.trace_out, spec.name)});
    }
    const int child = Spawn(self, args);
    auto text = ReadFile(detail_path);
    fs::remove(detail_path);
    if (child != 0 || !text) {
      std::fprintf(stderr, "%s: run failed (exit %d)\n", spec.name, child);
      rc = 1;
    }
    if (text) details.emplace_back(spec.name, *text);
  }
  std::error_code ec;
  fs::remove(cli.tmp_dir, ec);
  if (!cli.out.empty()) {
    if (!WriteFile(cli.out, Wrap(cli, details))) {
      std::fprintf(stderr, "cannot write %s\n", cli.out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", cli.out.c_str());
  }
  return rc;
}

/// One end-to-end metric's bound, as BENCHMARK.json fixes it.
struct Bound {
  std::string name;
  std::string unit;
  bool lower_better = true;
  double bound = 0.0;
};

Result<benchdiff::FlatJson> ReadJson(const std::string& path) {
  auto text = ReadFile(path);
  if (!text) return Status::NotFound("cannot read " + path);
  return benchdiff::ParseFlatJson(*text);
}

/// Names listed under `section` ("end_to_end" or "per_layer").
std::vector<Bound> ReadBounds(const benchdiff::FlatJson& bench,
                              const std::string& section) {
  std::vector<Bound> out;
  for (size_t i = 0;; ++i) {
    const std::string key = section + "." + std::to_string(i) + ".";
    auto name = bench.strings.find(key + "name");
    if (name == bench.strings.end()) break;
    Bound b;
    b.name = name->second;
    if (auto u = bench.strings.find(key + "unit"); u != bench.strings.end()) {
      b.unit = u->second;
    }
    if (auto d = bench.strings.find(key + "better"); d != bench.strings.end()) {
      b.lower_better = d->second == "lower";
    }
    if (auto v = bench.numbers.find(key + "bound"); v != bench.numbers.end()) {
      b.bound = v->second;
    }
    out.push_back(std::move(b));
  }
  return out;
}

std::optional<double> Lookup(const benchdiff::FlatJson& doc,
                             const std::string& key) {
  auto it = doc.numbers.find(key);
  if (it == doc.numbers.end()) return std::nullopt;
  return it->second;
}

int Compare(const Cli& cli) {
  if (cli.positional.size() != 2) return Usage("--compare needs two files");
  auto bench = ReadJson(cli.benchmark_json);
  auto a = ReadJson(cli.positional[0]);
  auto b = ReadJson(cli.positional[1]);
  for (const auto* r : {&bench, &a, &b}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 2;
    }
  }
  const std::vector<Bound> bounds = ReadBounds(*bench, "end_to_end");
  if (bounds.empty()) {
    std::fprintf(stderr, "no end_to_end metrics in %s\n", cli.benchmark_json.c_str());
    return 2;
  }
  std::printf("%-15s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric",
              "a", "b", "change", "bound", "verdict");
  int regressions = 0;
  size_t rows = 0;
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const std::string prefix = std::string("workloads.") + spec.name + ".";
    const bool in_a = Lookup(*a, prefix + "attempted").has_value();
    const bool in_b = Lookup(*b, prefix + "attempted").has_value();
    if (!in_a && !in_b) continue;
    if (in_a != in_b) {
      std::printf("%-15s %-16s present in only one file  REGRESSION\n",
                  spec.name, "-");
      ++regressions;
      continue;
    }
    for (const Bound& bound : bounds) {
      const std::string key = prefix + "metrics." + bound.name + ".value";
      const auto va = Lookup(*a, key);
      const auto vb = Lookup(*b, key);
      ++rows;
      if (!va || !vb) {
        const bool both_absent = !va && !vb;
        std::printf("%-15s %-16s %14s %14s %9s %6.0f%%  %s\n", spec.name,
                    bound.name.c_str(), va ? Num(va).c_str() : "absent",
                    vb ? Num(vb).c_str() : "absent", "-", 100 * bound.bound,
                    both_absent ? "absent" : "REGRESSION (missing)");
        if (!both_absent) ++regressions;
        continue;
      }
      const double change = *va != 0 ? (*vb - *va) / *va : 0.0;
      const double worse = bound.lower_better ? change : -change;
      // Absolute floors: sub-millisecond latencies and set-up times move by
      // scheduler noise alone.
      double floor = 0.0;
      if (bound.unit == "ms" && *va < 1.0) floor = 0.02;
      if (bound.name == "setup_s") floor = 0.05;
      const bool regressed =
          worse > bound.bound && std::fabs(*vb - *va) >= floor;
      if (regressed) ++regressions;
      std::printf("%-15s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", spec.name,
                  bound.name.c_str(), *va, *vb, 100 * change, 100 * bound.bound,
                  regressed ? "REGRESSION" : "ok");
    }
    const double ea = Lookup(*a, prefix + "error_ratio").value_or(1.0);
    const double eb = Lookup(*b, prefix + "error_ratio").value_or(1.0);
    const bool errors_rose = eb > ea;
    if (errors_rose) ++regressions;
    std::printf("%-15s %-16s %14.4f %14.4f %9s %7s  %s\n", spec.name,
                "error_ratio", ea, eb, "-", "0", errors_rose ? "REGRESSION" : "ok");
  }
  std::printf("%zu metric comparisons, %d regression(s)\n", rows, regressions);
  return regressions == 0 && rows > 0 ? 0 : 1;
}

int Dump(const Cli& cli) {
  const Scale scale = cli.smoke ? SmokeScale() : FullScale();
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (!cli.workload.empty() && cli.workload != spec.name) continue;
    std::fputs(DumpStatements(spec, scale, cli.seed, kDumpRequests).c_str(), stdout);
  }
  return 0;
}

/// Metric names reported for `workload` in a flattened --all/--traced file.
std::set<std::string> ReportedNames(const benchdiff::FlatJson& doc,
                                    const std::string& workload) {
  const std::string prefix = "workloads." + workload + ".metrics.";
  const std::string suffix = ".unit";
  std::set<std::string> names;
  for (const auto& [key, value] : doc.strings) {
    if (key.size() > prefix.size() + suffix.size() &&
        key.compare(0, prefix.size(), prefix) == 0 &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      names.insert(key.substr(prefix.size(),
                              key.size() - prefix.size() - suffix.size()));
    }
  }
  return names;
}

/// The bench-smoke test: statement streams are a pure function of the seed,
/// and --all/--traced at smoke scale report exactly BENCHMARK.json's metric
/// names with no failed statement. No timing thresholds.
int SmokeTest(const std::string& self, const Cli& cli) {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const std::string a = DumpStatements(spec, SmokeScale(), 1, kDumpRequests);
    const std::string b = DumpStatements(spec, SmokeScale(), 1, kDumpRequests);
    const std::string c = DumpStatements(spec, SmokeScale(), 2, kDumpRequests);
    check(a == b, std::string(spec.name) + ": same seed, identical statements");
    check(a != c, std::string(spec.name) + ": other seed, other statements");
  }
  auto bench = ReadJson(cli.benchmark_json);
  check(bench.ok(), "read " + cli.benchmark_json);
  if (!bench.ok()) return 1;
  fs::create_directories(cli.tmp_dir);
  for (const char* mode : {"--all", "--traced"}) {
    const std::string out = cli.tmp_dir + "/smoke" + mode + ".json";
    const int rc = Spawn(self, {mode, "--smoke", "--seed", "1", "--out", out,
                                "--tmp-dir", cli.tmp_dir + "/runs"});
    check(rc == 0, std::string(mode) + " --smoke exits 0");
    auto doc = ReadJson(out);
    fs::remove(out);
    check(doc.ok(), std::string(mode) + " wrote its JSON");
    if (!doc.ok()) continue;
    std::set<std::string> expected;
    for (const Bound& b :
         ReadBounds(*bench, std::strcmp(mode, "--all") == 0 ? "end_to_end"
                                                            : "per_layer")) {
      expected.insert(b.name);
    }
    for (const WorkloadSpec& spec : AllWorkloads()) {
      const std::string w = std::string(mode) + " " + spec.name;
      check(ReportedNames(*doc, spec.name) == expected,
            w + ": metric names match BENCHMARK.json");
      const auto ratio =
          Lookup(*doc, std::string("workloads.") + spec.name + ".error_ratio");
      check(ratio && *ratio == 0.0, w + ": error_ratio is 0");
    }
  }
  std::error_code ec;
  fs::remove(cli.tmp_dir, ec);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dbx::explore

int main(int argc, char** argv) {
  using namespace dbx::explore;
  Cli cli;
  if (!ParseCli(argc, argv, &cli)) return Usage("bad arguments");
  if (cli.mode == "compare") return Compare(cli);
  if (cli.mode == "dump") return Dump(cli);
  if (cli.mode == "all" || cli.mode == "traced") return RunEvery(argv[0], cli);
  if (cli.mode == "smoke-test") return SmokeTest(argv[0], cli);
  if (cli.workload.empty()) return Usage("--workload is required");
  return RunOne(cli);
}
