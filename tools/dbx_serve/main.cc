// dbx_serve: the exploration server binary (DESIGN.md §12). Registers the
// built-in datasets with a Dispatcher and serves the length-prefixed CADVIEW
// protocol on a unix-domain socket (default) or localhost TCP, with the
// Prometheus scrape endpoint on a second TCP port. This binary is the only
// consumer of the socket transports — every protocol/dispatcher behavior is
// exercised in-process by the test suites over the loopback transport.
//
// Usage:
//   dbx_serve [--socket /tmp/dbx.sock | --tcp PORT] [--metrics-port PORT]
//             [--backend URI] [--preload TABLE]...
//             [--rows N] [--max-sessions N] [--max-inflight N]
//             [--session-budget-kb N]
//             [--trace-out PATH] [--query-log PATH] [--slow-ms N]
//             [--query-log-slow-only]
//
// Storage (DESIGN.md §15): --backend selects where tables come from —
// `mem:` (default; built-in datasets generated in-process), `dbxc:<dir>`
// (on-disk columnar files), or `sqlite:<file>` (ingest adapter). --preload
// names the tables to register (repeatable); without it every table the
// backend lists is registered, and an empty backend falls back to the
// built-in datasets — generated once, stored through the backend, then
// loaded back, so a dbxc:/sqlite: server warm-starts on the next run.
//
// Observability (DESIGN.md §14): --trace-out dumps the server tracer's
// Chrome trace on clean shutdown; --query-log streams one JSONL record per
// EXEC; --slow-ms sets the slow-query threshold (default 100ms) and
// --query-log-slow-only keeps only slow statements. The metrics port also
// serves /healthz, /statusz, and /tracez alongside /metrics.
//
// Runs until SIGINT/SIGTERM, then drains connections and exits cleanly.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/data/dataset.h"
#include "src/obs/metrics.h"
#include "src/storage/storage.h"
#include "src/obs/query_log.h"
#include "src/obs/trace.h"
#include "src/server/dispatcher.h"
#include "src/server/metrics_http.h"
#include "src/server/socket_transport.h"
#include "src/util/stopwatch.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

/// Accepts "--flag VALUE" (consuming the next argv) and "--flag=VALUE".
bool FlagValue(int argc, char** argv, int* i, const char* flag,
               std::string* value) {
  const size_t flag_len = std::strlen(flag);
  if (std::strcmp(argv[*i], flag) == 0 && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  if (std::strncmp(argv[*i], flag, flag_len) == 0 &&
      argv[*i][flag_len] == '=') {
    *value = argv[*i] + flag_len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/dbx.sock";
  int tcp_port = -1;           // -1 = use the unix socket
  int metrics_port = 0;        // 0 = ephemeral (printed at startup)
  size_t rows = 0;             // 0 = each dataset's default size
  std::string backend_uri = "mem:";
  std::vector<std::string> preload;  // empty = whatever the backend lists
  std::string trace_out;       // "" = no trace dump
  std::string query_log_path;  // "" = in-memory ring only (still served)
  double slow_ms = 100.0;
  bool query_log_slow_only = false;
  std::string flag_value;
  dbx::server::ServerOptions options;
  options.max_inflight = 8;
  options.session_cache_budget_bytes = 8u << 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (FlagValue(argc, argv, &i, "--trace-out", &flag_value)) {
      trace_out = flag_value;
    } else if (FlagValue(argc, argv, &i, "--query-log", &flag_value)) {
      query_log_path = flag_value;
    } else if (FlagValue(argc, argv, &i, "--slow-ms", &flag_value)) {
      slow_ms = std::strtod(flag_value.c_str(), nullptr);
    } else if (std::strcmp(argv[i], "--query-log-slow-only") == 0) {
      query_log_slow_only = true;
    } else if (std::strcmp(argv[i], "--tcp") == 0 && i + 1 < argc) {
      tcp_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics-port") == 0 && i + 1 < argc) {
      metrics_port = std::atoi(argv[++i]);
    } else if (FlagValue(argc, argv, &i, "--backend", &flag_value)) {
      backend_uri = flag_value;
    } else if (FlagValue(argc, argv, &i, "--preload", &flag_value)) {
      preload.push_back(flag_value);
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-sessions") == 0 && i + 1 < argc) {
      options.max_sessions = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-inflight") == 0 && i + 1 < argc) {
      options.max_inflight = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--session-budget-kb") == 0 &&
               i + 1 < argc) {
      options.session_cache_budget_bytes =
          static_cast<size_t>(std::atoi(argv[++i])) << 10;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  // Tables come from the storage backend as immutable shared snapshots; the
  // dispatcher shares ownership, so the backend can vanish afterwards.
  auto backend = dbx::storage::OpenStorageBackend(backend_uri);
  if (!backend.ok()) {
    std::fprintf(stderr, "open backend %s: %s\n", backend_uri.c_str(),
                 backend.status().ToString().c_str());
    return 1;
  }
  std::printf("storage backend %s\n", backend_uri.c_str());
  std::vector<std::string> table_names = preload;
  if (table_names.empty()) {
    auto listed = (*backend)->ListTables();
    if (!listed.ok()) {
      std::fprintf(stderr, "list tables: %s\n",
                   listed.status().ToString().c_str());
      return 1;
    }
    table_names = std::move(*listed);
    // A brand-new store serves the built-in datasets, persisted through the
    // backend so the next start reloads instead of regenerating.
    if (table_names.empty()) table_names = dbx::BuiltinDatasetNames();
  }
  std::vector<dbx::storage::TableSnapshot> snapshots;
  for (const std::string& name : table_names) {
    auto snap = (*backend)->LoadTable(name);
    if (!snap.ok() && snap.status().IsNotFound()) {
      auto ds = dbx::LoadDataset(name, rows);
      if (!ds.ok()) {
        std::fprintf(stderr, "load %s: %s\n", name.c_str(),
                     ds.status().ToString().c_str());
        return 1;
      }
      if (dbx::Status st = (*backend)->StoreTable(name, *ds->table);
          !st.ok()) {
        std::fprintf(stderr, "store %s: %s\n", name.c_str(),
                     st.ToString().c_str());
        return 1;
      }
      snap = (*backend)->LoadTable(name);
    }
    if (!snap.ok()) {
      std::fprintf(stderr, "load %s: %s\n", name.c_str(),
                   snap.status().ToString().c_str());
      return 1;
    }
    snapshots.push_back(std::move(*snap));
  }

  // Tracing is on whenever any §14 surface wants spans: a --trace-out dump,
  // the query log's stage latencies, or the /tracez endpoint (always served,
  // so always trace — span recording is cheap and bounded by the ring).
  dbx::Tracer tracer(8192);
  dbx::QueryLog query_log;
  query_log.SetSlowThresholdMs(slow_ms);
  query_log.SetSlowOnly(query_log_slow_only);
  if (!query_log_path.empty()) {
    if (dbx::Status st = query_log.AttachFile(query_log_path); !st.ok()) {
      std::fprintf(stderr, "query log: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("query log -> %s (slow-ms=%.1f%s)\n", query_log_path.c_str(),
                slow_ms, query_log_slow_only ? ", slow-only" : "");
  }

  // One registry for the process: the dispatcher records into it and the
  // scrape port serves it.
  dbx::MetricsRegistry metrics;
  options.metrics = &metrics;
  options.tracer = &tracer;
  options.query_log = &query_log;
  dbx::server::Dispatcher dispatcher(std::move(options));
  for (dbx::storage::TableSnapshot& snap : snapshots) {
    std::printf("registered %s (%zu rows, snapshot %s)\n", snap.name.c_str(),
                snap.table->num_rows(), snap.snapshot_id.c_str());
    dispatcher.RegisterTableSnapshot(snap.name, std::move(snap.table),
                                     std::move(snap.snapshot_id));
  }
  snapshots.clear();
  if (dbx::Status st = (*backend)->Close(); !st.ok()) {
    std::fprintf(stderr, "close backend: %s\n", st.ToString().c_str());
    return 1;
  }

  std::unique_ptr<dbx::server::Listener> listener;
  if (tcp_port >= 0) {
    auto l = dbx::server::TcpListener::Bind(static_cast<uint16_t>(tcp_port));
    if (!l.ok()) {
      std::fprintf(stderr, "bind tcp: %s\n", l.status().ToString().c_str());
      return 1;
    }
    std::printf("serving on 127.0.0.1:%u\n", (*l)->port());
    listener = std::move(*l);
  } else {
    auto l = dbx::server::UnixListener::Bind(socket_path);
    if (!l.ok()) {
      std::fprintf(stderr, "bind unix: %s\n", l.status().ToString().c_str());
      return 1;
    }
    std::printf("serving on unix:%s\n", (*l)->path().c_str());
    listener = std::move(*l);
  }

  auto metrics_listener =
      dbx::server::TcpListener::Bind(static_cast<uint16_t>(metrics_port));
  if (!metrics_listener.ok()) {
    std::fprintf(stderr, "bind metrics: %s\n",
                 metrics_listener.status().ToString().c_str());
    return 1;
  }
  std::printf("debug endpoints on http://127.0.0.1:%u"
              "{/metrics,/healthz,/statusz,/tracez}\n",
              (*metrics_listener)->port());

  dbx::server::Server server(&dispatcher, listener.get());
  server.Start();
  dbx::Stopwatch uptime;
  dbx::server::DebugEndpoints endpoints;
  endpoints.metrics = &metrics;
  endpoints.statusz = [&dispatcher] { return dispatcher.RenderStatusz(); };
  endpoints.uptime_seconds = [&uptime] {
    return uptime.ElapsedNanos() / 1e9;
  };
  endpoints.tracer = &tracer;
  dbx::server::MetricsHttpServer metrics_server(endpoints,
                                                metrics_listener->get());
  metrics_server.Start();

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("ready (SIGINT/SIGTERM to stop)\n");
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("stopping...\n");
  metrics_server.Stop();
  server.Stop();
  if (!trace_out.empty()) {
    if (dbx::Status st = tracer.WriteChromeJson(trace_out); st.ok()) {
      std::printf("trace -> %s (%zu span(s))\n", trace_out.c_str(),
                  tracer.Events().size());
    } else {
      std::fprintf(stderr, "trace dump: %s\n", st.ToString().c_str());
    }
  }
  std::printf("stopped; %zu session(s) reaped, %llu statement(s) logged\n",
              dispatcher.session_count(),
              static_cast<unsigned long long>(query_log.appended()));
  return 0;
}
