#include "bench/explore/runner.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "bench/explore/sample_summary.h"
#include "src/core/cad_view_renderer.h"
#include "src/data/synthetic.h"
#include "src/obs/trace.h"
#include "src/query/engine.h"
#include "src/query/parser.h"
#include "src/relation/predicate.h"
#include "src/server/client.h"
#include "src/server/dispatcher.h"
#include "src/server/transport.h"
#include "src/storage/storage.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace dbx::explore {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Set-ups run untimed until kSetupWarmupSeconds have passed (at least
/// one): the first ones in a process pay first-touch page faults and vary
/// the most. The timed ones that follow run in rounds of one set-up pinned
/// to each core, until they add up to kMinSetupSeconds (at most kMaxSetups).
/// setup_s is their median, so every core weighs the same.
constexpr double kSetupWarmupSeconds = 0.2;
constexpr size_t kMaxSetups = 24;
constexpr double kMinSetupSeconds = 1.0;
/// How long the window's threads stay off each core in turn (CoreRotation).
constexpr auto kRotationPeriod = std::chrono::milliseconds(100);
/// HostSpeedProbe's interval and chain length, and the chain's median time
/// on the host the bounds were sized on: end-to-end times are reported at
/// that host's speed.
constexpr auto kProbePeriod = std::chrono::milliseconds(50);
constexpr int64_t kProbeChain = 200000;
constexpr double kReferenceProbeUs = 550.0;
/// Each end-to-end metric is taken over the whole window, so the rarer
/// statement classes (about 200 lookups a run on cold_build) have all their
/// samples behind a percentile. The window is also cut into kSlices equal
/// time slices, whose values and spread --out files record.
constexpr size_t kSlices = 5;
constexpr size_t kReplayStatements = 100;
constexpr size_t kSmokeReplayStatements = 20;
/// cold_build / selective_scan warm up on the head of their own stream.
constexpr size_t kAnalystWarmupRequests = 6;
/// Closed-loop traffic run and discarded before the window, so allocator,
/// cache and CPU state are settled when measuring starts.
constexpr double kWarmupTrafficShare = 0.1;
/// Every 20th CADVIEW response is checked against the reference engine, as
/// is every view served more than once (those include every cache hit).
constexpr size_t kCheckEvery = 20;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// `length` dependent floating-point multiply-adds: fixed work whose time
/// follows the speed of the core it runs on.
double FpChain(int64_t length) {
  double x = 1.0;
  for (int64_t i = 0; i < length; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

bool IsSessionWorkload(const WorkloadSpec& spec) {
  return spec.id == WorkloadId::kDrilldownMix ||
         spec.id == WorkloadId::kIngestChurn;
}

// --- The served stack --------------------------------------------------------

/// Dispatcher, loopback listener and accept loop. Members are destroyed in
/// reverse order, so the server stops (joining its threads) first.
struct Stack {
  explicit Stack(server::ServerOptions options)
      : dispatcher(std::move(options)), server(&dispatcher, &listener) {}
  server::Dispatcher dispatcher;
  server::LoopbackListener listener;
  server::Server server;
};

server::ServerOptions MakeServerOptions(size_t build_threads, Tracer* tracer,
                                        uint64_t delay_us) {
  server::ServerOptions o;
  o.cad_defaults.num_threads = build_threads;
  o.tracer = tracer;
  if (delay_us > 0) {
    // Work that takes delay_us on the reference host, so the delay scales
    // with the host's speed like the rest of the request does.
    const auto length = static_cast<int64_t>(
        static_cast<double>(delay_us) * kProbeChain / kReferenceProbeUs);
    o.exec_hook_for_test = [length](const std::string&) {
      volatile double sink = FpChain(length);
      (void)sink;
    };
  }
  return o;
}

/// A table as the server serves it: registered in memory (the dispatcher
/// mints the id) or a DBXC snapshot under its content-addressed id.
struct Served {
  std::shared_ptr<const Table> table;
  std::string snapshot_id;  // "" = in-memory registration
};

std::unique_ptr<Stack> StartStack(const Served& served,
                                  server::ServerOptions options) {
  auto stack = std::make_unique<Stack>(std::move(options));
  if (served.snapshot_id.empty()) {
    stack->dispatcher.RegisterTable(kTableName, served.table.get());
  } else {
    stack->dispatcher.RegisterTableSnapshot(kTableName, served.table,
                                            served.snapshot_id);
  }
  stack->server.Start();
  return stack;
}

struct Setup {
  Served served;
  std::unique_ptr<storage::StorageBackend> backend;  // dbxc: workloads
  std::unique_ptr<Stack> stack;  // declared last: stops first
};

/// Data generation or ingest, registration, and server start — what
/// setup_s times.
Result<Setup> DoSetup(const WorkloadSpec& spec, const RunOptions& opt,
                      const std::string& dir) {
  Setup s;
  Table table = GenerateTable(spec, opt.scale);
  if (spec.id == WorkloadId::kSelectiveScan ||
      spec.id == WorkloadId::kIngestChurn) {
    DBX_ASSIGN_OR_RETURN(s.backend,
                         storage::OpenStorageBackend("dbxc:" + dir + "/data"));
    DBX_RETURN_IF_ERROR(s.backend->StoreTable(kTableName, table));
    DBX_ASSIGN_OR_RETURN(storage::TableSnapshot snap,
                         s.backend->LoadTable(kTableName));
    s.served = {snap.table, snap.snapshot_id};
  } else {
    s.served.table = std::make_shared<const Table>(std::move(table));
  }
  s.stack = StartStack(s.served, MakeServerOptions(spec.build_threads, nullptr,
                                                   opt.inject_delay_us));
  return s;
}

// --- Host speed ----------------------------------------------------------------
//
// On the 4-vCPU KVM guest (Xeon) this was sized on, the host's speed moves
// under the benchmark in two ways. Each core is fast or slow for tens of
// seconds at a time (its host sibling busy or not): the same set-up took
// 35 ms pinned to one core and 53 ms pinned to another. And the whole
// machine drifts over minutes: selective_scan's throughput rose from 49 to
// 63 statements/s across ten runs of the same code. The benchmark spreads
// its threads over the cores, and scales its times by a probe of the host's
// speed taken during the same run.

/// Calls `tick` every `period` on a thread of its own until destroyed.
class Ticker {
 public:
  Ticker(std::chrono::milliseconds period, std::function<void()> tick)
      : thread_([this, period, tick = std::move(tick)] {
          std::unique_lock<std::mutex> lock(mu_);
          while (!stop_) {
            tick();
            cv_.wait_for(lock, period, [this] { return stop_; });
          }
        }) {}
  ~Ticker() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

/// The cores this process may run on (all of them, at start).
std::vector<int> AllowedCores() {
  std::vector<int> cores;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cores.push_back(c);
    }
  }
  if (cores.empty()) cores.push_back(sched_getcpu());
  return cores;
}

cpu_set_t CoreSet(const std::vector<int>& cores, int excluded) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cores) {
    if (c != excluded) CPU_SET(c, &set);
  }
  return set;
}

/// Lets every thread of the process run on `cores` except `excluded`.
void SetProcessCores(const std::vector<int>& cores, int excluded) {
  const cpu_set_t set = CoreSet(cores, excluded);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc/self/task", ec)) {
    const auto tid = static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10));
    if (tid > 0) sched_setaffinity(tid, sizeof set, &set);
  }
}

/// While alive, keeps every thread of the process off one core at a time,
/// moving on to the next core every kRotationPeriod, so that a thread the
/// scheduler would leave on one slow core spends its time on all of them.
/// Needs three cores or more; restores all cores when destroyed.
class CoreRotation {
 public:
  explicit CoreRotation(const std::vector<int>& cores) : cores_(cores) {
    if (cores_.size() < 3) return;  // giving one up would halve the machine
    ticker_.emplace(kRotationPeriod, [this, phase = size_t{0}]() mutable {
      SetProcessCores(cores_, cores_[phase++ % cores_.size()]);
    });
  }
  ~CoreRotation() {
    ticker_.reset();
    SetProcessCores(cores_, -1);
  }

 private:
  const std::vector<int> cores_;
  std::optional<Ticker> ticker_;
};

double ThreadCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

/// While alive, times a fixed chain of dependent floating-point operations
/// (about half a millisecond) every kProbePeriod, in its own thread's CPU
/// time so that waiting for a core does not count. The chain's time tracks
/// the host's speed: over ten runs of each workload, its correlation with
/// the p50 latencies was r = 0.58-0.94 (0.82 or more for 14 of the 16).
class HostSpeedProbe {
 public:
  HostSpeedProbe()
      : ticker_(std::in_place, kProbePeriod, [this] {
          const double start = ThreadCpuUs();
          sink_ = FpChain(kProbeChain);
          times_us_.push_back(ThreadCpuUs() - start);
        }) {}

  /// Stops probing and returns the median chain time in µs.
  double Stop() {
    ticker_.reset();
    return MedianOf(times_us_).value_or(kReferenceProbeUs);
  }

 private:
  std::vector<double> times_us_;  // the ticker's thread only, until Stop
  volatile double sink_ = 0.0;
  std::optional<Ticker> ticker_;  // last: starts once the members above exist
};

// --- Set-up --------------------------------------------------------------------

struct SetupRuns {
  Setup last;  // the stack that serves the run
  std::vector<std::vector<double>> seconds;  // timed set-ups, per core
};

/// Untimed set-ups for kSetupWarmupSeconds, then rounds of one timed set-up
/// pinned to each core, until they add up to kMinSetupSeconds.
Result<SetupRuns> SetUpRepeatedly(const WorkloadSpec& spec,
                                  const RunOptions& opt, const std::string& dir,
                                  const std::vector<int>& cores) {
  SetupRuns runs;
  runs.seconds.resize(cores.size());
  // One set-up on a fresh thread pinned to `core`. The previous stack is
  // torn down first, outside the timing.
  auto once = [&](int core) -> Result<double> {
    runs.last = Setup{};
    std::optional<Result<Setup>> s;
    double took = 0.0;
    std::thread([&] {
      const cpu_set_t one = CoreSet({core}, -1);
      sched_setaffinity(0, sizeof one, &one);
      const auto start = Clock::now();
      s.emplace(DoSetup(spec, opt, dir));
      took = std::chrono::duration<double>(Clock::now() - start).count();
    }).join();
    DBX_RETURN_IF_ERROR(s->status());
    runs.last = std::move(**s);
    return took;
  };
  const auto warm_until = Clock::now() + Seconds(kSetupWarmupSeconds);
  do {
    DBX_RETURN_IF_ERROR(once(cores.front()).status());
  } while (Clock::now() < warm_until);
  const size_t max_rounds = std::max<size_t>(1, kMaxSetups / cores.size());
  double total = 0.0;
  for (size_t round = 0;
       round < max_rounds && (round == 0 || total < kMinSetupSeconds); ++round) {
    for (size_t i = 0; i < cores.size(); ++i) {
      DBX_ASSIGN_OR_RETURN(const double took, once(cores[i]));
      runs.seconds[i].push_back(took);
      total += took;
    }
  }
  // The serving stack's threads started on the last set-up's core.
  SetProcessCores(cores, -1);
  return runs;
}

// --- Analysts ----------------------------------------------------------------

/// Table versions, shared by the ingest writer and the analysts: a session
/// reads the current version at OPEN under `mu`, and the writer registers a
/// new snapshot under `mu`, so every response is tied to the content it was
/// built over. Versions index table contents (IngestContents), so a
/// content the writer returns to keeps its version.
struct Versions {
  std::mutex mu;
  size_t current = 0;
  /// The snapshot registered now. A session keeps only a raw pointer to the
  /// table it was opened on (Dispatcher::OpenSession), so each analyst holds
  /// this for as long as its session may use it.
  std::shared_ptr<const Table> registered;
  std::vector<std::shared_ptr<const Table>> tables;
  std::atomic<uint64_t> reads{0};  // completed statements: the write trigger
};

/// One CADVIEW statement on one table version: a hash of its first
/// response, which every later response must match, and the bytes of the
/// response the every-20th rule picked, if any. Keeping bytes only for those
/// keeps the bench's own memory from growing with throughput.
struct ViewRecord {
  std::string sql;
  size_t version = 0;
  size_t hash = 0;
  std::string bytes;
  uint64_t responses = 0;
};

/// One statement's latency. Compact and stored into reserved capacity, so
/// recording samples adds no reallocation spikes to the peak RSS.
struct Sample {
  float end_s;  // completion, seconds from the window start
  float ms;     // +inf for a failed statement: it misses every bound
  StmtClass cls;
};
constexpr size_t kSampleCapacity = size_t{1} << 20;

struct Analyst {
  std::unique_ptr<server::Client> client;
  std::unique_ptr<RequestStream> stream;
  std::string sid;
  size_t version = 0;
  std::shared_ptr<const Table> snapshot;  // what the open session reads
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;  // a response differing from its first sibling
  uint64_t cadviews = 0;
  std::map<std::string, ViewRecord> views;  // key: version '\n' sql
  std::vector<std::string> errors;
};

struct Sent {
  bool ok = false;
  double ms = 0.0;
  Clock::time_point end;
  size_t bytes = 0;
};

void RecordView(Analyst* a, const std::string& sql, std::string body) {
  const bool sampled = a->cadviews++ % kCheckEvery == 0;
  const size_t hash = std::hash<std::string>{}(body);
  auto [it, inserted] =
      a->views.try_emplace(std::to_string(a->version) + "\n" + sql);
  ViewRecord& rec = it->second;
  if (inserted) {
    rec.sql = sql;
    rec.version = a->version;
    rec.hash = hash;
  } else if (hash != rec.hash) {
    ++a->mismatches;
  }
  if (sampled && rec.bytes.empty()) rec.bytes = std::move(body);
  ++rec.responses;
}

/// Sends one request; the latency runs from the call into Client to the
/// arrival of the response bytes. Everything after that is untimed.
Sent Send(Analyst* a, const Request& req, Versions* versions) {
  ++a->attempted;
  Status status;
  std::string body;
  const auto start = Clock::now();
  switch (req.kind) {
    case Request::Kind::kOpen: {
      std::lock_guard<std::mutex> lock(versions->mu);
      auto sid = a->client->Open();
      if (sid.ok()) {
        a->sid = *sid;
        a->version = versions->current;
        a->snapshot = versions->registered;
      } else {
        status = sid.status();
      }
      break;
    }
    case Request::Kind::kExec: {
      auto r = a->client->Exec(a->sid, req.sql);
      if (r.ok()) {
        body = std::move(*r);
      } else {
        status = r.status();
      }
      break;
    }
    case Request::Kind::kClose:
      status = a->client->CloseSession(a->sid);
      break;
  }
  Sent sent;
  sent.end = Clock::now();
  sent.ms = MsBetween(start, sent.end);
  sent.ok = status.ok();
  sent.bytes = body.size();
  if (!status.ok()) {
    ++a->failed;
    if (a->errors.size() < 5) {
      a->errors.push_back((req.sql.empty() ? "OPEN/CLOSE" : req.sql) + " -> " +
                          status.ToString());
    }
  } else if (req.kind == Request::Kind::kExec &&
             req.cls == StmtClass::kCadView) {
    RecordView(a, req.sql, std::move(body));
  }
  return sent;
}

/// One analyst's closed loop until the deadline.
void RunAnalyst(Analyst* a, Versions* versions, Clock::time_point start,
                Clock::time_point deadline) {
  while (Clock::now() < deadline) {
    const Request req = a->stream->Next();
    const Sent s = Send(a, req, versions);
    if (req.kind == Request::Kind::kExec) {
      a->samples.push_back(
          {std::chrono::duration<float>(s.end - start).count(),
           s.ok ? static_cast<float>(s.ms)
                : std::numeric_limits<float>::infinity(),
           req.cls});
      versions->reads.fetch_add(1);
    }
  }
}

/// Runs every analyst's closed loop on its own thread until the deadline.
void RunClients(std::vector<Analyst>* analysts, Versions* versions,
                Clock::time_point start, Clock::time_point deadline) {
  std::vector<std::thread> threads;
  for (Analyst& a : *analysts) {
    threads.emplace_back(
        [&a, versions, start, deadline] { RunAnalyst(&a, versions, start, deadline); });
  }
  for (std::thread& t : threads) t.join();
}

/// ingest_churn's writer: at the window's start and after every
/// kReadsPerWrite completed statements until its deadline, store the next
/// table content to dbxc:, load it back and register the snapshot. Counting
/// reads rather than seconds ties the write rate to the read rate, so a
/// slower host stretches each cycle instead of shifting its mix. Returns
/// each write's store+load+register time.
Result<std::vector<double>> WriteLoop(Setup* setup, Versions* versions,
                                      Clock::time_point deadline) {
  std::vector<double> writes;
  const uint64_t first_read = versions->reads.load();
  for (size_t k = 0;; ++k) {
    while (versions->reads.load() < first_read + k * kReadsPerWrite) {
      if (Clock::now() >= deadline) return writes;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const size_t version = 1 + k % kWritesPerRepetition;
    const auto begin = Clock::now();
    DBX_RETURN_IF_ERROR(
        setup->backend->StoreTable(kTableName, *versions->tables[version]));
    DBX_ASSIGN_OR_RETURN(storage::TableSnapshot snap,
                         setup->backend->LoadTable(kTableName));
    {
      std::lock_guard<std::mutex> lock(versions->mu);
      setup->stack->dispatcher.RegisterTableSnapshot(kTableName, snap.table,
                                                     snap.snapshot_id);
      versions->current = version;
      versions->registered = std::move(snap.table);
    }
    writes.push_back(MsBetween(begin, Clock::now()));
  }
  return writes;
}

// --- Live output check -------------------------------------------------------

struct CheckResult {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  double seconds = 0.0;
  std::vector<std::string> notes;
};

/// Compares every view served more than once, and every 20th CADVIEW
/// response, with a serial, uncached engine running the same statement on
/// the same table version: byte for byte where the bytes were kept, by hash
/// otherwise. Responses that repeat a view were already compared with its
/// first response, by hash, as they arrived.
CheckResult CheckViews(const std::vector<Analyst>& analysts,
                       const Versions& versions) {
  const auto start = Clock::now();
  CheckResult out;
  struct Merged {
    const ViewRecord* rec = nullptr;  // one holding bytes, when any does
    uint64_t responses = 0;
  };
  std::map<std::string, Merged> merged;
  for (const Analyst& a : analysts) {
    out.mismatches += a.mismatches;
    for (const auto& [key, rec] : a.views) {
      Merged& m = merged[key];
      if (m.rec == nullptr) {
        m.rec = &rec;
      } else if (m.rec->hash != rec.hash) {
        ++out.mismatches;  // two sessions got different bytes for one view
      } else if (m.rec->bytes.empty()) {
        m.rec = &rec;
      }
      m.responses += rec.responses;
    }
  }
  std::vector<const ViewRecord*> todo;
  for (const auto& [key, m] : merged) {
    if (!m.rec->bytes.empty() || m.responses > 1) todo.push_back(m.rec);
  }
  const size_t threads = std::min<size_t>(
      {3, std::max(1u, std::thread::hardware_concurrency()), todo.size()});
  std::vector<uint64_t> bad(threads, 0);
  std::vector<std::string> first_bad(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::map<size_t, std::unique_ptr<Engine>> engines;  // per version
      for (size_t i = t; i < todo.size(); i += threads) {
        const ViewRecord& rec = *todo[i];
        auto& engine = engines[rec.version];
        if (engine == nullptr) {
          engine = std::make_unique<Engine>();
          engine->RegisterTableSnapshot(
              kTableName, versions.tables[rec.version].get(), "reference");
          CadViewOptions serial;
          serial.num_threads = 1;
          engine->SetDefaultCadViewOptions(serial);
        }
        auto ref = engine->ExecuteSql(rec.sql);
        const bool same =
            ref.ok() && (rec.bytes.empty()
                             ? std::hash<std::string>{}(ref->rendered) == rec.hash
                             : ref->rendered == rec.bytes);
        if (!same) {
          if (bad[t]++ == 0) first_bad[t] = rec.sql;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (size_t t = 0; t < threads; ++t) {
    out.mismatches += bad[t];
    if (bad[t] > 0) {
      out.notes.push_back("response differs from the serial uncached build: " +
                          first_bad[t]);
    }
  }
  out.checked = todo.size();
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

// --- Metric helpers ----------------------------------------------------------

std::optional<double> Spread(const std::vector<std::optional<double>>& reps) {
  std::vector<double> v;
  for (const auto& r : reps) {
    if (!r) return std::nullopt;
    v.push_back(*r);
  }
  const auto median = MedianOf(v);
  if (!median || *median == 0.0) return std::nullopt;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return (*hi - *lo) / *median;
}

size_t SliceOf(double end_s, double window_s, size_t slices) {
  const double k = end_s / (window_s / static_cast<double>(slices));
  return std::min(slices - 1, static_cast<size_t>(std::max(0.0, k)));
}

Metric LatencyMetric(const std::string& name, const std::vector<Sample>& all,
                     std::optional<StmtClass> cls, double p, double window_s) {
  std::vector<double> window;
  std::vector<std::vector<double>> slices(kSlices);
  for (const Sample& s : all) {
    if (cls && s.cls != *cls) continue;
    window.push_back(s.ms);
    slices[SliceOf(s.end_s, window_s, kSlices)].push_back(s.ms);
  }
  Metric m{name, "ms"};
  m.samples = window.size();
  m.value = SampleSummary(std::move(window)).Percentile(p);
  for (std::vector<double>& slice : slices) {
    m.reps.push_back(SampleSummary(std::move(slice)).Percentile(p));
  }
  m.spread = Spread(m.reps);
  return m;
}

/// Restates a time, or a rate, at the reference host's speed.
void ScaleToReferenceHost(Metric* m, double scale) {
  double factor = 1.0;
  if (m->unit == "ms" || m->unit == "s") factor = scale;
  if (m->unit == "1/s") factor = 1.0 / scale;
  if (m->value) *m->value *= factor;
  for (std::optional<double>& r : m->reps) {
    if (r) *r *= factor;
  }
}

rusage Usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

// --- Traced replay -----------------------------------------------------------

/// The span each src/ stage emits, and the per-layer metric its self time
/// feeds. "exec" is the dispatcher's root span: its self time holds the
/// stages the bench re-times itself (parse, predicate, render, ...).
const std::map<std::string, std::string>& SpanMetrics() {
  static const std::map<std::string, std::string> kMap = {
      {"exec", "query.exec_self_ms"},
      {"cache_probe", "core.cache_probe_ms"},
      {"discretize", "stats.discretize_ms"},
      {"partition", "core.partition_ms"},
      {"chi_square", "stats.chi_square_ms"},
      {"iunit_gen", "core.iunit_gen_self_ms"},
      {"kmeans", "cluster.kmeans_ms"},
      {"labeling", "core.labeling_ms"},
      {"div_topk", "core.div_topk_ms"},
  };
  return kMap;
}

/// Layers timed by the bench around direct calls, outside the request.
const std::vector<std::string>& BenchTimedLayers() {
  static const std::vector<std::string> kLayers = {
      "query.parse_ms",   "query.lookup_ms",  "relation.predicate_ms",
      "core.view_copy_ms", "core.similarity_ms", "core.render_ms"};
  return kLayers;
}

struct Replay {
  std::vector<double> request_ms;         // EXEC statements only
  std::map<std::string, double> sums;     // per-layer sums, ms or counts
  double selectivity_sum = 0.0;
  size_t selectivity_n = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t sink = 0;  // keeps re-timed results observable
};

template <typename F>
double TimeMs(F&& f) {
  const auto start = Clock::now();
  f();
  return MsBetween(start, Clock::now());
}

/// Splits one traced request into layers: the spans it emitted (self
/// times), the bench's own re-timing of the stages the spans do not cover,
/// and frame I/O (request minus the server's exec span).
void Attribute(const std::vector<TraceEvent>& spans, double request_ms,
               const Request& req, const Table& table, Engine* mirror,
               Replay* out) {
  std::map<std::string, double> layer;
  std::map<uint64_t, double> child_ms;
  for (const TraceEvent& e : spans) child_ms[e.parent] += e.dur_ns / 1e6;
  double exec_ms = 0.0;
  double spans_ms = 0.0;  // self time of every mapped span but exec
  bool cache_hit = false;  // a hit skips the WHERE evaluation
  for (const TraceEvent& e : spans) {
    const double self = e.dur_ns / 1e6 - child_ms[e.id];
    if (e.name == "exec" && e.parent == 0) exec_ms = e.dur_ns / 1e6;
    if (e.name == "cache_probe" &&
        e.args.find("result=hit") != std::string::npos) {
      cache_hit = true;
    }
    if (e.name == "kmeans") out->sums["cluster.kmeans_calls"] += 1;
    auto it = SpanMetrics().find(e.name);
    if (it == SpanMetrics().end()) continue;  // unknown spans stay unattributed
    layer[it->second] += self;
    if (e.name != "exec") spans_ms += self;
  }
  layer["server.frame_io_ms"] = request_ms - exec_ms;

  std::optional<Result<Statement>> parsed_or;
  layer["query.parse_ms"] =
      TimeMs([&] { parsed_or.emplace(ParseStatement(req.sql)); });
  Result<Statement>& parsed = *parsed_or;
  // A CADVIEW evaluates its WHERE only on a cache miss; a lookup's WHERE
  // scan is part of query.lookup_ms below.
  auto* create = parsed.ok() ? std::get_if<CreateCadViewStmt>(&*parsed) : nullptr;
  if (create != nullptr && create->where != nullptr && !cache_hit) {
    Result<RowSet> rows = RowSet{};
    layer["relation.predicate_ms"] = TimeMs([&] {
      rows = Predicate::Evaluate(create->where.get(), TableSlice::All(table));
    });
    if (rows.ok()) {
      out->selectivity_sum +=
          static_cast<double>(rows->size()) / static_cast<double>(table.num_rows());
      ++out->selectivity_n;
    }
  }
  if (create != nullptr) {
    auto built = mirror->ExecuteSql(req.sql);
    if (built.ok()) {
      const CadView& view = *built->view;
      layer["core.render_ms"] =
          TimeMs([&] { out->sink += RenderCadView(view).size(); });
      layer["core.view_copy_ms"] =
          TimeMs([&] { out->sink += CadView(view).rows.size(); });
    }
  } else if (auto* hl = parsed.ok() ? std::get_if<HighlightStmt>(&*parsed)
                                    : nullptr) {
    auto view = mirror->GetView(hl->view_name);
    if (view.ok()) {
      Result<std::vector<IUnitRef>> matches = std::vector<IUnitRef>{};
      layer["core.similarity_ms"] = TimeMs([&] {
        matches = (*view)->FindSimilarIUnits(hl->pivot_value,
                                             hl->iunit_rank - 1, hl->threshold);
      });
      RenderOptions ro;
      if (matches.ok()) ro.highlights = *matches;
      layer["core.render_ms"] =
          TimeMs([&] { out->sink += RenderCadView(**view, ro).size(); });
    }
    (void)mirror->ExecuteSql(req.sql);
  } else if (auto* ro = parsed.ok() ? std::get_if<ReorderStmt>(&*parsed)
                                    : nullptr) {
    auto view = mirror->GetView(ro->view_name);
    if (view.ok()) {
      CadView copy = **view;
      layer["core.similarity_ms"] = TimeMs([&] {
        out->sink += copy.ReorderRowsBySimilarity(ro->pivot_value).ok();
        if (!ro->descending) std::reverse(copy.rows.begin(), copy.rows.end());
      });
      layer["core.render_ms"] =
          TimeMs([&] { out->sink += RenderCadView(copy).size(); });
    }
    (void)mirror->ExecuteSql(req.sql);
  } else if (parsed.ok() && req.cls == StmtClass::kLookup) {
    layer["query.lookup_ms"] = TimeMs([&] {
      auto r = mirror->Execute(std::move(*parsed));
      out->sink += r.ok() ? r->rendered.size() : 0;
    });
  }

  double attributed = layer["server.frame_io_ms"] + spans_ms;
  for (const std::string& name : BenchTimedLayers()) attributed += layer[name];
  layer["unattributed_ms"] = request_ms - attributed;
  for (const auto& [name, ms] : layer) out->sums[name] += ms;
}

/// Replays client 0's first `statements` statements on a fresh server with
/// one build thread, so spans never overlap. With `tracer` set, each request
/// is split into layers (and the bench's own request spans go to
/// `bench_tracer`).
Replay RunReplay(const WorkloadSpec& spec, const RunOptions& opt,
                 const Served& served, const DrillPool& pool,
                 size_t statements, Tracer* tracer, Tracer* bench_tracer) {
  Replay out;
  auto stack = StartStack(served, MakeServerOptions(1, tracer, opt.inject_delay_us));
  Versions versions;
  versions.registered = served.table;
  versions.tables.push_back(served.table);
  Analyst a;
  a.client = std::make_unique<server::Client>(stack->listener.Connect());
  a.stream = MakeStream(spec, *served.table, &pool, opt.seed, 0);
  auto mirror = std::make_unique<Engine>();
  uint64_t seen_span = 0;
  while (out.request_ms.size() < statements) {
    const Request req = a.stream->Next();
    const uint64_t span_start = bench_tracer ? bench_tracer->NowNs() : 0;
    const Sent s = Send(&a, req, &versions);
    if (bench_tracer != nullptr) {
      bench_tracer->Emit("request", 0, span_start,
                         bench_tracer->NowNs() - span_start,
                         req.sql.empty() ? "session" : req.sql.substr(0, 60));
    }
    if (req.kind == Request::Kind::kOpen) {
      mirror = std::make_unique<Engine>();
      mirror->RegisterTableSnapshot(kTableName, served.table.get(), "mirror");
      CadViewOptions serial;
      serial.num_threads = 1;
      mirror->SetDefaultCadViewOptions(serial);
    }
    if (req.kind != Request::Kind::kExec) continue;
    out.request_ms.push_back(s.ms);
    // The untraced replay re-times the layers too (and discards the
    // result), so both replays do nearly the same work between requests and
    // their difference is the tracing overhead.
    std::vector<TraceEvent> spans;
    for (TraceEvent& e : tracer ? tracer->Events() : std::vector<TraceEvent>{}) {
      if (e.id > seen_span) spans.push_back(std::move(e));
    }
    for (const TraceEvent& e : spans) seen_span = std::max(seen_span, e.id);
    out.sums["core.response_bytes"] += static_cast<double>(s.bytes);
    Attribute(spans, s.ms, req, *served.table, mirror.get(), &out);
  }
  a.client->connection()->Close();
  out.attempted = a.attempted;
  out.failed = a.failed + a.mismatches;
  return out;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

uint64_t BusyNs(const ThreadPool::Stats& s) {
  uint64_t total = 0;
  for (uint64_t ns : s.worker_busy_ns) total += ns;
  return total;
}

/// Stores `table` to a fresh dbxc: directory and loads it back.
Status StorageRoundTrip(const Table& table, const std::string& dir,
                        std::map<std::string, double>* layer) {
  DBX_ASSIGN_OR_RETURN(auto backend, storage::OpenStorageBackend("dbxc:" + dir));
  Status stored = Status::OK();
  (*layer)["storage.store_ms"] =
      TimeMs([&] { stored = backend->StoreTable(kTableName, table); });
  DBX_RETURN_IF_ERROR(stored);
  Result<storage::TableSnapshot> loaded = Status::Internal("unset");
  (*layer)["storage.load_ms"] =
      TimeMs([&] { loaded = backend->LoadTable(kTableName); });
  DBX_RETURN_IF_ERROR(loaded.status());
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  (*layer)["storage.bytes_per_row"] =
      static_cast<double>(bytes) / static_cast<double>(table.num_rows());
  return backend->Close();
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"server.frame_io_ms", "ms"},
      {"query.exec_self_ms", "ms"},
      {"query.parse_ms", "ms"},
      {"query.lookup_ms", "ms"},
      {"relation.predicate_ms", "ms"},
      {"core.cache_probe_ms", "ms"},
      {"core.cache_hit_ratio", "ratio"},
      {"core.cache_evictions_per_1k", "count"},
      {"core.cache_invalidations_per_1k", "count"},
      {"core.view_copy_ms", "ms"},
      {"stats.discretize_ms", "ms"},
      {"core.partition_ms", "ms"},
      {"stats.chi_square_ms", "ms"},
      {"core.iunit_gen_self_ms", "ms"},
      {"cluster.kmeans_ms", "ms"},
      {"cluster.kmeans_calls", "count"},
      {"core.labeling_ms", "ms"},
      {"core.div_topk_ms", "ms"},
      {"core.similarity_ms", "ms"},
      {"core.render_ms", "ms"},
      {"core.response_bytes", "bytes"},
      {"util.pool_busy_workers", "count"},
      {"util.pool_tasks_per_stmt", "count"},
      {"storage.store_ms", "ms"},
      {"storage.load_ms", "ms"},
      {"storage.bytes_per_row", "bytes"},
      {"unattributed_ms", "ms"},
      {"trace_overhead_pct", "%"},
  };
  return kMetrics;
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& opt) {
  HostSpeedProbe probe;  // from set-up to the end of the window
  RunResult result;
  const std::string dir = opt.tmp_dir + "/" + spec.name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto fail = [&](const std::string& what) {
    result.correct = false;
    result.notes.push_back(what);
    ++result.failed;
    ++result.attempted;
  };

  // 1. Set-up, several times; the last one serves the run.
  const std::vector<int> cores = AllowedCores();
  Result<SetupRuns> setup_runs = SetUpRepeatedly(spec, opt, dir, cores);
  if (!setup_runs.ok()) {
    fail("set-up failed: " + setup_runs.status().ToString());
    fs::remove_all(dir);
    return result;
  }
  Setup& setup = setup_runs->last;

  // 2. Inputs: every analyst's stream, drawn from the served rows.
  DrillPool pool;
  if (IsSessionWorkload(spec)) {
    pool = MakeDrillPool(*setup.served.table, opt.scale, opt.seed);
  }
  Versions versions;
  versions.registered = setup.served.table;
  versions.tables = spec.id == WorkloadId::kIngestChurn
                        ? IngestContents(setup.served.table)
                        : std::vector<std::shared_ptr<const Table>>{
                              setup.served.table};
  std::vector<Analyst> analysts(spec.clients);
  for (size_t c = 0; c < spec.clients; ++c) {
    analysts[c].client =
        std::make_unique<server::Client>(setup.stack->listener.Connect());
    analysts[c].stream =
        MakeStream(spec, *setup.served.table, &pool, opt.seed, c);
  }

  // 3. Warm-up, never measured: the pool (or the head of each stream), then
  // a stretch of ordinary traffic whose samples are dropped.
  const auto warm_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < spec.clients; ++c) {
      threads.emplace_back([&, c] {
        Analyst* a = &analysts[c];
        if (IsSessionWorkload(spec)) {
          for (const Request& r : PoolWarmup(pool, c, spec.clients)) {
            (void)Send(a, r, &versions);
          }
        } else {
          for (size_t i = 0; i < kAnalystWarmupRequests; ++i) {
            (void)Send(a, a->stream->Next(), &versions);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (Analyst& a : analysts) a.samples.reserve(kSampleCapacity);
  std::optional<CoreRotation> rotation(std::in_place, cores);
  RunClients(&analysts, &versions, Clock::now(),
             Clock::now() + Seconds(kWarmupTrafficShare * opt.seconds));
  for (Analyst& a : analysts) a.samples.clear();
  const double warmup_s =
      std::chrono::duration<double>(Clock::now() - warm_start).count();

  // 4. The measured window.
  const ViewCacheStats cache_before = setup.stack->dispatcher.cache()->stats();
  const ThreadPool::Stats pool_before = ThreadPool::Shared().GetStats();
  const rusage usage_before = Usage();
  const auto start = Clock::now();
  const auto deadline = start + Seconds(opt.seconds);
  std::vector<double> writes_ms;
  {
    std::thread writer;
    Result<std::vector<double>> written = std::vector<double>{};
    if (spec.id == WorkloadId::kIngestChurn) {
      writer = std::thread([&] {
        written = WriteLoop(&setup, &versions, deadline);
      });
    }
    RunClients(&analysts, &versions, start, deadline);
    if (writer.joinable()) writer.join();
    if (written.ok()) {
      writes_ms = std::move(*written);
    } else {
      fail("ingest write failed: " + written.status().ToString());
    }
  }
  const double window_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  rotation.reset();
  const double probe_us = probe.Stop();
  const rusage usage_after = Usage();
  const double peak_rss_mb = usage_after.ru_maxrss / 1024.0;  // KiB -> MiB
  const ViewCacheStats cache_after = setup.stack->dispatcher.cache()->stats();
  const ThreadPool::Stats pool_after = ThreadPool::Shared().GetStats();
  for (Analyst& a : analysts) a.client->connection()->Close();
  setup.stack.reset();

  // 5. Output check against the serial uncached engine.
  std::vector<Sample> samples;
  for (const Analyst& a : analysts) {
    result.attempted += a.attempted;
    result.failed += a.failed;
    samples.insert(samples.end(), a.samples.begin(), a.samples.end());
    for (const std::string& e : a.errors) result.notes.push_back("error: " + e);
  }
  const CheckResult check = CheckViews(analysts, versions);
  result.failed += check.mismatches;
  result.notes.insert(result.notes.end(), check.notes.begin(), check.notes.end());

  const uint64_t statements = samples.size();
  size_t by_class[3] = {0, 0, 0};
  for (const Sample& s : samples) ++by_class[static_cast<size_t>(s.cls)];
  result.info = {
      {"clients", static_cast<double>(spec.clients)},
      {"build_threads", static_cast<double>(spec.build_threads)},
      {"table_rows", static_cast<double>(setup.served.table->num_rows())},
      {"warmup_s", warmup_s},
      {"window_s", window_s},
      {"statements", static_cast<double>(statements)},
      {"cadview_statements", static_cast<double>(by_class[0])},
      {"inview_statements", static_cast<double>(by_class[1])},
      {"lookup_statements", static_cast<double>(by_class[2])},
      {"minor_faults",
       static_cast<double>(usage_after.ru_minflt - usage_before.ru_minflt)},
      {"reference_checked", static_cast<double>(check.checked)},
      {"reference_check_s", check.seconds},
      {"cache_hits", static_cast<double>(cache_after.hits - cache_before.hits)},
      {"cache_misses",
       static_cast<double>(cache_after.misses - cache_before.misses)},
      {"cache_evictions",
       static_cast<double>(cache_after.evictions - cache_before.evictions)},
      {"cache_invalidations", static_cast<double>(cache_after.invalidations -
                                                  cache_before.invalidations)},
  };
  // A host running the probe slower than the reference scales times down.
  const double host_scale = kReferenceProbeUs / probe_us;
  result.info.push_back({"host_probe_us", probe_us});
  result.info.push_back({"host_speed_scale", host_scale});
  if (spec.id == WorkloadId::kIngestChurn) {
    result.info.push_back({"writes", static_cast<double>(writes_ms.size())});
    if (auto m = MedianOf(writes_ms)) result.info.push_back({"write_median_ms", *m});
  }

  if (!opt.trace) {
    // End-to-end metrics, tracing off.
    Metric setup_metric{"setup_s", "s"};
    std::vector<double> all_setups;
    for (const std::vector<double>& on_core : setup_runs->seconds) {
      all_setups.insert(all_setups.end(), on_core.begin(), on_core.end());
      setup_metric.reps.push_back(MedianOf(on_core));
    }
    setup_metric.value = MedianOf(all_setups);
    setup_metric.samples = all_setups.size();
    setup_metric.spread = Spread(setup_metric.reps);

    Metric qps{"throughput_qps", "1/s"};
    qps.samples = statements;
    qps.value = static_cast<double>(statements) / window_s;
    std::vector<double> completed(kSlices, 0.0);
    for (const Sample& s : samples) {
      completed[SliceOf(s.end_s, window_s, kSlices)] += 1;
    }
    for (double c : completed) qps.reps.push_back(c / (window_s / kSlices));
    qps.spread = Spread(qps.reps);

    Metric rss{"peak_rss_mb", "MB"};
    rss.value = peak_rss_mb;
    result.metrics = {
        setup_metric,
        qps,
        LatencyMetric("latency_p50_ms", samples, std::nullopt, 0.50, window_s),
        LatencyMetric("latency_p95_ms", samples, std::nullopt, 0.95, window_s),
        LatencyMetric("cadview_p50_ms", samples, StmtClass::kCadView, 0.50, window_s),
        LatencyMetric("cadview_p95_ms", samples, StmtClass::kCadView, 0.95, window_s),
        LatencyMetric("inview_p50_ms", samples, StmtClass::kInView, 0.50, window_s),
        LatencyMetric("lookup_p50_ms", samples, StmtClass::kLookup, 0.50, window_s),
        rss,
    };
    for (Metric& m : result.metrics) ScaleToReferenceHost(&m, host_scale);
  } else {
    // Per-layer metrics: counters over the window above, then an untraced
    // and a traced replay of the same statements on fresh servers.
    const size_t n = opt.scale.smoke ? kSmokeReplayStatements : kReplayStatements;
    const Served replay_on{versions.tables.front(), setup.served.snapshot_id};
    Replay plain = RunReplay(spec, opt, replay_on, pool, n, nullptr, nullptr);
    Tracer server_tracer;
    Tracer bench_tracer;
    Replay traced = RunReplay(spec, opt, replay_on, pool, n, &server_tracer,
                              &bench_tracer);
    result.attempted += plain.attempted + traced.attempted;
    result.failed += plain.failed + traced.failed;
    if (!opt.trace_out.empty()) {
      const std::string json = MergedChromeJson(
          {{"explore_bench", &bench_tracer}, {"server", &server_tracer}});
      if (std::FILE* f = std::fopen(opt.trace_out.c_str(), "w")) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      } else {
        result.notes.push_back("cannot write " + opt.trace_out);
      }
    }

    std::map<std::string, double> layer;
    const double stmts = static_cast<double>(traced.request_ms.size());
    for (const auto& [name, sum] : traced.sums) layer[name] = sum / stmts;
    const double lookups = static_cast<double>(cache_after.hits - cache_before.hits +
                                               cache_after.misses - cache_before.misses);
    layer["core.cache_hit_ratio"] =
        lookups > 0 ? (cache_after.hits - cache_before.hits) / lookups : 0.0;
    const double per_1k = statements > 0 ? 1000.0 / statements : 0.0;
    layer["core.cache_evictions_per_1k"] =
        (cache_after.evictions - cache_before.evictions) * per_1k;
    layer["core.cache_invalidations_per_1k"] =
        (cache_after.invalidations - cache_before.invalidations) * per_1k;
    layer["util.pool_busy_workers"] =
        (BusyNs(pool_after) - BusyNs(pool_before)) / (window_s * 1e9);
    layer["util.pool_tasks_per_stmt"] =
        statements > 0 ? static_cast<double>(pool_after.tasks_submitted -
                                             pool_before.tasks_submitted) /
                             statements
                       : 0.0;
    Status rt =
        StorageRoundTrip(*versions.tables.back(), dir + "/roundtrip", &layer);
    if (!rt.ok()) fail("storage round trip failed: " + rt.ToString());
    const double plain_mean = Mean(plain.request_ms);
    const double traced_mean = Mean(traced.request_ms);
    layer["trace_overhead_pct"] =
        plain_mean > 0 ? 100.0 * (traced_mean - plain_mean) / plain_mean : 0.0;

    for (const auto& [name, unit] : PerLayerMetrics()) {
      Metric m{name, unit};
      m.value = layer.count(name) ? layer[name] : 0.0;
      m.samples = traced.request_ms.size();
      const bool request_layer = unit == "ms" && name.rfind("storage.", 0) != 0;
      if (request_layer && traced_mean > 0) m.share = *m.value / traced_mean;
      result.metrics.push_back(std::move(m));
    }
    result.info.push_back({"replay_statements", stmts});
    result.info.push_back({"replay_mean_ms", traced_mean});
    result.info.push_back({"replay_untraced_mean_ms", plain_mean});
    result.info.push_back(
        {"miss_selectivity", traced.selectivity_n > 0
                                 ? traced.selectivity_sum / traced.selectivity_n
                                 : 0.0});
  }

  if (result.failed > 0) result.correct = false;
  setup = Setup{};
  fs::remove_all(dir);
  return result;
}

}  // namespace dbx::explore
