// Copyright (c) DBExplorer reproduction authors.
// Shared fixed-size thread pool: the execution layer behind every parallel
// stage of the pipeline (partition clustering, chi-square ranking, k-means
// assignment, similarity-graph and facet-index construction).
//
// Determinism contract: ParallelFor assigns work by index, so a caller that
// writes only into per-index result slots and reduces them in a fixed order
// produces byte-identical output for ANY thread count, including 1. Callers
// must never append under a lock — lock-ordered appends reintroduce
// scheduling order into results.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace dbx {

/// A fixed set of worker threads draining one task queue. Construction spawns
/// the workers; destruction drains every queued task, then joins. Thread-safe.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Point-in-time usage snapshot. The pool sits below the observability
  /// layer, so it keeps plain atomics; src/obs/explain.h bridges a snapshot
  /// into the metrics registry as dbx_pool_* series.
  struct Stats {
    uint64_t tasks_submitted = 0;    // Submit() calls, lifetime
    uint64_t parallel_for_calls = 0; // member ParallelFor() calls, lifetime
    size_t queue_depth = 0;          // tasks waiting right now
    size_t num_threads = 0;
    std::vector<uint64_t> worker_busy_ns;  // per-worker task time, lifetime
  };
  Stats GetStats() const;

  /// Enqueues a task. Safe from any thread, including pool workers.
  void Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [begin, end), split into chunks of `grain`
  /// indices claimed atomically by the calling thread plus up to
  /// min(num_threads(), max_parallelism - 1) pool workers. The caller always
  /// participates, so a ParallelFor issued from inside a pool task cannot
  /// deadlock even when every worker is busy. Blocks until all indices ran.
  ///
  /// Every index runs exactly once regardless of failures; an exception is
  /// converted to Status::Internal. Within a chunk, execution stops at that
  /// chunk's first error. The returned Status is the error of the lowest
  /// failed index — deterministic for any thread count.
  ///
  /// max_parallelism == 0 means caller + all workers.
  [[nodiscard]] Status ParallelFor(size_t begin, size_t end, size_t grain,
                     const std::function<Status(size_t)>& fn,
                     size_t max_parallelism = 0);

  /// Process-wide pool shared by all pipeline stages. Sized to the hardware
  /// concurrency (at least 2 workers), created on first use, never destroyed.
  static ThreadPool& Shared();

 private:
  void WorkerLoop(size_t worker_index);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ DBX_GUARDED_BY(mu_);
  bool shutdown_ DBX_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> tasks_submitted_{0};
  std::atomic<uint64_t> parallel_for_calls_{0};
  std::unique_ptr<std::atomic<uint64_t>[]> worker_busy_ns_;  // one per worker
};

/// Convenience entry point for pipeline stages carrying a `num_threads`
/// option: runs fn over [begin, end) with at most `num_threads` concurrent
/// executions on the shared pool. num_threads <= 1 runs serially on the
/// calling thread without touching the pool — but through the same chunked
/// code path, so results and error selection match the parallel build
/// exactly (see the determinism contract above).
[[nodiscard]]
Status ParallelFor(size_t num_threads, size_t begin, size_t end, size_t grain,
                   const std::function<Status(size_t)>& fn);

/// Thread count for concurrency tests: the DBX_TEST_THREADS environment
/// variable when set to a positive integer, else `fallback`. Lets the
/// verification loop re-run the suite with the threaded paths forced on.
size_t TestThreads(size_t fallback = 1);

}  // namespace dbx
