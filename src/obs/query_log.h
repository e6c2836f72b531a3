// Copyright (c) DBExplorer reproduction authors.
// Structured query log (DESIGN.md §14): a thread-safe, bounded JSONL sink of
// per-statement records — canonical statement text, session id, client trace
// id, result status, cache probe outcome, response bytes, total latency, and
// per-stage latencies lifted from the span tree. The server dispatcher, which
// owns each statement, is the one producer: one record per EXEC.
//
// Determinism contract: the sink never reads a clock — every timing in a
// record is supplied by the caller — and serialization emits fields in a
// fixed order. ToJsonLine(record, /*include_timings=*/false) omits the
// wall-clock-dependent fields (total_ms, slow, stages) entirely, so a fixed
// statement script produces byte-identical JSONL run to run; the golden test
// in tests/query_log_test.cc pins that.
//
// The slow-query filter is deterministic for the same reason: `slow` is a
// pure function of the caller-supplied total_ms and the configured
// threshold, and slow-only mode drops records below it before they reach the
// ring or the file sink.

#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace dbx {

/// One executed statement. Every field except `seq` and `slow` is supplied
/// by the caller; Append() assigns the sequence number and evaluates the
/// slow threshold.
struct QueryLogRecord {
  uint64_t seq = 0;            // 1-based, assigned by the sink
  std::string session;         // session id ("s3")
  std::string trace;           // client-sent trace id; "" = none
  std::string statement;       // canonical statement text
  std::string status = "OK";   // "OK" or Status::CodeName
  std::string cache = "none";  // cache probe: hit/miss/uncacheable/no-cache/none
  uint64_t response_bytes = 0;  // response payload bytes
  double total_ms = 0.0;        // caller-measured wall time
  bool slow = false;            // total_ms >= slow threshold (sink-evaluated)
  /// Per-stage wall time summed by span name over the statement's span
  /// subtree, sorted by name (see StageLatenciesFromSpans).
  std::vector<std::pair<std::string, double>> stages;
};

/// Thread-safe bounded ring of QueryLogRecords with an optional streaming
/// JSONL file sink. All methods may be called concurrently.
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit QueryLog(size_t capacity = kDefaultCapacity);
  ~QueryLog();

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Records with total_ms >= `ms` are marked slow; 0 disables marking.
  void SetSlowThresholdMs(double ms);

  /// When true, Append() drops records below the slow threshold (they are
  /// counted in filtered(), and reach neither the ring nor the file sink).
  void SetSlowOnly(bool slow_only);

  /// Opens `path` for appending; every subsequent kept record is written as
  /// one JSONL line (with timings) and flushed. Replaces any prior sink.
  [[nodiscard]] Status AttachFile(const std::string& path);

  /// Appends one record: assigns its seq, evaluates the slow threshold,
  /// applies the slow-only filter, stores it in the ring (evicting the
  /// oldest past capacity), and streams it to the attached file. Returns the
  /// assigned seq, or 0 when the record was filtered.
  uint64_t Append(QueryLogRecord record);

  /// Snapshot of the retained records, oldest first.
  std::vector<QueryLogRecord> Records() const;

  /// Records kept (lifetime, including ones since evicted from the ring).
  uint64_t appended() const;
  /// Records evicted from the ring because it was full.
  uint64_t dropped() const;
  /// Records rejected by the slow-only filter.
  uint64_t filtered() const;

  /// Drops every retained record and resets the counters (seq continues).
  void Clear();

  /// One JSON object on one line, fields in fixed order, no trailing
  /// newline. include_timings=false omits total_ms/slow/stages — the
  /// wall-clock-dependent fields — for byte-deterministic goldens.
  static std::string ToJsonLine(const QueryLogRecord& record,
                                bool include_timings = true);

  /// Every retained record, one JSONL line each (trailing newline included).
  std::string ToJsonl(bool include_timings = true) const;

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::deque<QueryLogRecord> ring_ DBX_GUARDED_BY(mu_);
  uint64_t next_seq_ DBX_GUARDED_BY(mu_) = 1;
  uint64_t appended_ DBX_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ DBX_GUARDED_BY(mu_) = 0;
  uint64_t filtered_ DBX_GUARDED_BY(mu_) = 0;
  double slow_threshold_ms_ DBX_GUARDED_BY(mu_) = 0.0;
  bool slow_only_ DBX_GUARDED_BY(mu_) = false;
  std::FILE* sink_ DBX_GUARDED_BY(mu_) = nullptr;
};

/// Sums span durations by name over the subtree rooted at `root_id`
/// (excluding the root itself), returning (name, total_ms) pairs sorted by
/// name — the "stage latencies" a QueryLogRecord carries. Events whose
/// ancestor chain does not reach `root_id` (other sessions' statements on a
/// shared tracer) are ignored, so `events` may be Tracer::Events(root_id):
/// the subtree opened after its root.
std::vector<std::pair<std::string, double>> StageLatenciesFromSpans(
    const std::vector<TraceEvent>& events, uint64_t root_id);

}  // namespace dbx
