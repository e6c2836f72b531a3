// Experiment: session-scoped CAD View cache. A 10-step TPFacet drill-down is
// replayed three ways — uncached, against a cold cache, and against the warm
// cache a previous session populated — on the mushroom dataset and a synthetic
// table. The cache must serve the warm replay at least 2x faster than the cold
// one (full mode) while every step's serialized view stays byte-identical to
// the uncached build (verified in both modes; --smoke shrinks the datasets).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/cad_view_io.h"
#include "src/core/view_cache.h"
#include "src/data/mushroom.h"
#include "src/data/synthetic.h"
#include "src/explorer/tpfacet_session.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/string_util.h"

namespace dbx {
namespace {

std::string SerializeStable(CadView view) {
  view.timings = CadViewTimings{};
  return CadViewToJson(view) + "\n---\n" + CadViewToCsv(view);
}

// `rank`-th most frequent label of `attr` in the session's facet domain
// (ties by code), so the script adapts to whatever the generators produce.
std::string FrequentLabel(const TpFacetSession& session, const std::string& attr,
                          size_t rank) {
  const DiscretizedTable& dt = session.facets().discretized();
  auto idx = dt.IndexOf(attr);
  if (!idx.has_value()) return "";
  const DiscreteAttr& a = dt.attr(*idx);
  std::vector<size_t> counts(a.cardinality(), 0);
  for (int32_t code : a.codes) {
    if (code >= 0) ++counts[static_cast<size_t>(code)];
  }
  std::vector<int32_t> order(a.cardinality());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  std::sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
    if (counts[x] != counts[y]) return counts[x] > counts[y];
    return x < y;
  });
  return rank < order.size() ? a.labels[order[rank]] : "";
}

struct DrillDownSpec {
  std::string dataset_id;
  std::string pivot;
  // Facet attributes driving the script: a[0] is selected twice (widen),
  // a[1..3] once each.
  std::vector<std::string> attrs;
};

struct ReplayResult {
  std::vector<std::string> serialized;  // per step
  double view_ms = 0.0;                 // time spent inside View() calls
  bool ok = true;
};

// Replays the fixed 10-step script; cache == nullptr replays uncached.
// Spans land under a per-replay root in `tracer`; per-step View() latencies
// go to `recorder` (both optional).
ReplayResult Replay(const Table& table, const DrillDownSpec& spec,
                    const std::shared_ptr<ViewCache>& cache,
                    Tracer* tracer, const std::string& mode,
                    bench::LatencyRecorder* recorder) {
  ReplayResult result;
  CadViewOptions o;
  o.max_compare_attrs = 5;
  o.iunits_per_value = 3;
  o.seed = 7;
  auto session = TpFacetSession::Create(&table, DiscretizerOptions{}, o);
  if (!session.ok()) {
    std::fprintf(stderr, "session error: %s\n",
                 session.status().ToString().c_str());
    result.ok = false;
    return result;
  }
  if (cache != nullptr) session->SetViewCache(cache, spec.dataset_id);
  ScopedSpan replay_span(tracer, "replay:" + spec.dataset_id + ":" + mode);
  session->SetTracer(tracer, replay_span.id());

  TpFacetSession& s = *session;
  const std::string w0 = FrequentLabel(s, spec.attrs[0], 0);
  const std::string w1 = FrequentLabel(s, spec.attrs[0], 1);
  const std::string x0 = FrequentLabel(s, spec.attrs[1], 0);
  const std::string y0 = FrequentLabel(s, spec.attrs[2], 0);
  const std::string z0 = FrequentLabel(s, spec.attrs[3], 0);
  const std::string pv = FrequentLabel(s, spec.pivot, 0);

  const std::vector<std::function<Status()>> script = {
      [&] { return s.SetPivot(spec.pivot); },
      [&] { return s.SelectValue(spec.attrs[0], w0); },
      [&] { return s.SelectValue(spec.attrs[0], w1); },
      [&] { return s.SelectValue(spec.attrs[1], x0); },
      [&] { return s.SelectValue(spec.attrs[2], y0); },
      [&] { return s.Undo(); },
      [&] { return s.SelectValue(spec.attrs[3], z0); },
      [&] { return s.DeselectValue(spec.attrs[0], w1); },
      [&] {
        s.SetPivotValues({pv});
        return Status::OK();
      },
      [&] {
        s.SetPivotValues({});
        return Status::OK();
      },
  };

  for (size_t i = 0; i < script.size(); ++i) {
    Status st = script[i]();
    if (!st.ok()) {
      std::fprintf(stderr, "step %zu error: %s\n", i + 1,
                   st.ToString().c_str());
      result.ok = false;
      return result;
    }
    auto t0 = std::chrono::steady_clock::now();
    auto view = s.View();
    auto t1 = std::chrono::steady_clock::now();
    if (!view.ok()) {
      std::fprintf(stderr, "step %zu view error: %s\n", i + 1,
                   view.status().ToString().c_str());
      result.ok = false;
      return result;
    }
    const double step_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    result.view_ms += step_ms;
    if (recorder != nullptr) recorder->ObserveMs(step_ms);
    result.serialized.push_back(SerializeStable(**view));
  }
  return result;
}

struct DatasetOutcome {
  bool identical = true;
  double speedup = 0.0;
  bool ok = true;
  bool metrics_ok = true;
};

DatasetOutcome RunDataset(const char* label, const Table& table,
                          const DrillDownSpec& spec, Tracer* tracer) {
  bench::Section(StringPrintf("%s (%zu rows, 10-step drill-down)", label,
                              table.num_rows()));
  DatasetOutcome out;

  bench::LatencyRecorder uncached_lat(
      StringPrintf("dbx_bench_%s_uncached_view_ms", label));
  bench::LatencyRecorder cold_lat(
      StringPrintf("dbx_bench_%s_cold_view_ms", label));
  bench::LatencyRecorder warm_lat(
      StringPrintf("dbx_bench_%s_warm_view_ms", label));

  ReplayResult uncached =
      Replay(table, spec, nullptr, tracer, "uncached", &uncached_lat);
  // Regression guard: the cache-hit series in the registry the cache was
  // given must count exactly the hits its own stats report for the replay
  // pair.
  MetricsRegistry cache_metrics;
  auto cache = std::make_shared<ViewCache>(ViewCache::kDefaultByteBudget,
                                           &cache_metrics);
  ReplayResult cold = Replay(table, spec, cache, tracer, "cold", &cold_lat);
  ViewCacheStats cold_stats = cache->stats();
  ReplayResult warm = Replay(table, spec, cache, tracer, "warm", &warm_lat);
  ViewCacheStats warm_stats = cache->stats();
  const uint64_t hit_count =
      cache_metrics.GetCounter("dbx_cache_hits_total")->Value();
  if (hit_count != warm_stats.hits) {
    std::fprintf(stderr,
                 "  METRICS MISMATCH: dbx_cache_hits_total reads %llu "
                 "but the cache reports %llu hits\n",
                 static_cast<unsigned long long>(hit_count),
                 static_cast<unsigned long long>(warm_stats.hits));
    out.metrics_ok = false;
  }
  out.ok = uncached.ok && cold.ok && warm.ok;
  if (!out.ok) return out;

  for (size_t i = 0; i < uncached.serialized.size(); ++i) {
    if (cold.serialized[i] != uncached.serialized[i] ||
        warm.serialized[i] != uncached.serialized[i]) {
      std::fprintf(stderr, "  step %zu DIVERGED from uncached build\n", i + 1);
      out.identical = false;
    }
  }

  bench::Row("uncached", "view time", uncached.view_ms, "ms");
  bench::Row("cold cache", "view time", cold.view_ms, "ms");
  bench::Row("warm cache", "view time", warm.view_ms, "ms");
  uncached_lat.PrintSummary("uncached");
  cold_lat.PrintSummary("cold cache");
  warm_lat.PrintSummary("warm cache");
  out.speedup = cold.view_ms / std::max(warm.view_ms, 1e-9);
  std::printf(
      "  cold: %llu misses, %llu hits; "
      "warm: +%llu hits, +%llu misses; %zu entries, %zu KiB\n",
      static_cast<unsigned long long>(cold_stats.misses),
      static_cast<unsigned long long>(cold_stats.hits),
      static_cast<unsigned long long>(warm_stats.hits - cold_stats.hits),
      static_cast<unsigned long long>(warm_stats.misses - cold_stats.misses),
      warm_stats.entries, warm_stats.bytes_in_use / 1024);
  std::printf("  warm-vs-cold speedup: %.2fx; output %s\n", out.speedup,
              out.identical ? "byte-identical" : "DIVERGED");
  return out;
}

int Run(const bench::Args& args) {
  const bool smoke = args.smoke;
  bench::Header("Session-scoped CAD View cache: warm drill-down replay");

  // One collector for the whole run when --trace-out was given; otherwise
  // the shared disabled tracer (zero cost, nothing recorded).
  Tracer tracer;
  Tracer* tracer_ptr = args.trace_out.empty() ? Tracer::Disabled() : &tracer;

  Table mushrooms = GenerateMushrooms(smoke ? 1500 : 8124);
  DrillDownSpec mushroom_spec{
      "mushroom", "Class", {"Odor", "SporePrintColor", "GillColor", "Bruises"}};
  DatasetOutcome m = RunDataset("mushroom", mushrooms, mushroom_spec,
                                tracer_ptr);

  SyntheticSpec spec;
  spec.rows = smoke ? 1500 : 6000;
  spec.categorical_attrs = 10;
  spec.numeric_attrs = 2;
  spec.cardinality = 6;
  spec.clusters = 5;
  spec.seed = 19;
  auto synthetic = GenerateSynthetic(spec);
  if (!synthetic.ok()) {
    std::fprintf(stderr, "synthetic error: %s\n",
                 synthetic.status().ToString().c_str());
    return 1;
  }
  DrillDownSpec synthetic_spec{"synthetic", "C0", {"C1", "C2", "C3", "C4"}};
  DatasetOutcome s = RunDataset("synthetic", *synthetic, synthetic_spec,
                                tracer_ptr);

  const bool identical = m.identical && s.identical && m.ok && s.ok;
  const double min_speedup = std::min(m.speedup, s.speedup);
  bench::PaperShape(
      "a warm session cache turns repeat drill-down views into lookups: "
      "the replay runs at least 2x faster with byte-identical output");
  bench::Measured(StringPrintf(
      "warm-vs-cold speedup mushroom %.2fx, synthetic %.2fx; byte-identical: "
      "%s%s",
      m.speedup, s.speedup, identical ? "yes" : "NO",
      smoke ? " (smoke: speedup not enforced)" : ""));

  const bool trace_ok = bench::MaybeDumpTrace(tracer, args.trace_out);

  if (!identical) return 1;
  // The metric guard is live in both modes: cache counters must agree with
  // the instance's own stats.
  if (!m.metrics_ok || !s.metrics_ok) return 1;
  if (!trace_ok) return 1;
  // Timing thresholds only gate the full run; smoke keeps verification live.
  if (!smoke && min_speedup < 2.0) return 1;
  return 0;
}

}  // namespace
}  // namespace dbx

int main(int argc, char** argv) {
  return dbx::Run(dbx::bench::ParseArgs(argc, argv));
}
