// Copyright (c) DBExplorer reproduction authors.
// Span-based tracing for the CAD View pipeline. A Tracer owns a thread-safe
// ring buffer of finished spans; ScopedSpan is the RAII recording handle the
// pipeline stages hold across their work. Parent/child nesting is explicit
// (a span id is passed down, never read from thread-local state) so spans
// opened inside ParallelFor workers attach to the right parent regardless of
// which thread ran the chunk.
//
// Determinism contract: tracing never touches pipeline state, RNG streams, or
// result bytes — span names and args are built from deterministic values
// (labels, counts), and only the timestamps vary run to run. A disabled
// tracer (Tracer::Disabled(), or a null pointer) records nothing and never
// reads the clock, so instrumented code paths cost one branch when off.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace dbx {

/// One finished span. Times are nanoseconds relative to the tracer's epoch
/// (its construction / last Clear).
struct TraceEvent {
  uint64_t id = 0;      // unique within the tracer, 1-based
  uint64_t parent = 0;  // parent span id; 0 = root
  std::string name;     // deterministic stage name, e.g. "chi_square"
  std::string args;     // "key=value, key=value" detail (deterministic)
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;  // stable small thread index within the tracer
};

/// A thread-safe collector of spans. Create one per EXPLAIN ANALYZE /
/// session / bench run; attach it to options structs as a raw pointer.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  /// An enabled tracer holding up to `capacity` spans (oldest dropped first).
  explicit Tracer(size_t capacity = kDefaultCapacity);

  /// The shared no-op instance: enabled() is false, every operation returns
  /// immediately. The default value of every `Tracer*` knob in the pipeline.
  static Tracer* Disabled();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Records an externally timed span (e.g. a Stopwatch measurement that
  /// cannot live as a ScopedSpan). Returns the new span's id, 0 when
  /// disabled.
  uint64_t Emit(std::string name, uint64_t parent, uint64_t start_ns,
                uint64_t dur_ns, std::string args = "");

  /// Nanoseconds since the tracer's epoch. 0 when disabled.
  uint64_t NowNs() const;

  /// Finished spans with an id of at least `min_id` (ids are handed out as
  /// spans open, so a span's id selects it and every descendant), in ring
  /// order, then stably sorted by start time so exports read chronologically.
  std::vector<TraceEvent> Events(uint64_t min_id = 0) const;

  /// Spans discarded because the ring was full.
  uint64_t dropped() const;

  /// Drops every recorded span and resets the epoch.
  void Clear();

  /// Chrome trace_event JSON ("traceEvents" array of complete "X" events),
  /// loadable in chrome://tracing and Perfetto.
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`.
  [[nodiscard]] Status WriteChromeJson(const std::string& path) const;

 private:
  friend class ScopedSpan;

  Tracer(bool enabled, size_t capacity);

  uint64_t NextId();
  void Record(TraceEvent event);

  const bool enabled_;
  const size_t capacity_;
  /// steady_clock epoch offset. Atomic, not guarded: NowNs() reads it on
  /// every span open/close without the lock, while Clear() re-stamps it —
  /// the previously unsynchronized pair this annotation sweep flushed out
  /// (regression: TraceTest.ClearConcurrentWithSpansIsRaceFree).
  std::atomic<std::int64_t> epoch_ns_{0};
  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ DBX_GUARDED_BY(mu_);
  size_t next_slot_ DBX_GUARDED_BY(mu_) = 0;
  uint64_t recorded_ DBX_GUARDED_BY(mu_) = 0;  // lifetime, incl. dropped
  std::atomic<uint64_t> next_id_{1};
  std::vector<std::pair<std::thread::id, uint32_t>> thread_index_
      DBX_GUARDED_BY(mu_);
};

/// One process lane of a merged Chrome-trace export.
struct NamedTraceSource {
  std::string process_name;  // e.g. "client", "server"
  const Tracer* tracer = nullptr;
};

/// Merges several tracers into one Chrome trace_event JSON document: source
/// i's spans render under pid i+1 with a process_name metadata event, so a
/// client-side tracer and the server's tracer load as two labelled process
/// lanes on one timeline. Null/disabled tracers contribute an empty lane.
/// Note: each tracer's timestamps are relative to its own epoch; lanes align
/// at zero, which for a client/server pair created together is the intended
/// "request-scoped timeline" view.
std::string MergedChromeJson(const std::vector<NamedTraceSource>& sources);

/// RAII span handle: opens on construction, records on destruction. Accepts a
/// null or disabled tracer (every method becomes a no-op). Pass `id()` as the
/// `parent` of child spans — including into worker threads.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t parent = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  /// This span's id (0 when tracing is off) — the parent for child spans.
  uint64_t id() const { return id_; }

  /// True when the span will actually be recorded.
  bool active() const { return id_ != 0; }

  /// Appends "key=value" to the span's detail string. Values must be
  /// deterministic (counts, labels) — never addresses or timings.
  void AddArg(const std::string& key, const std::string& value);
  void AddArg(const std::string& key, uint64_t value);

  /// Records the span now (destruction becomes a no-op).
  void End();

 private:
  Tracer* tracer_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ns_ = 0;
  std::string name_;
  std::string args_;
};

}  // namespace dbx
