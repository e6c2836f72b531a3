#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>

namespace dbx {
namespace {

// State shared between a ParallelFor caller and its helper tasks. Helpers
// hold it via shared_ptr: a helper that was queued but only starts after the
// caller returned finds no chunk to claim and exits without touching `fn`.
struct ParallelForState {
  std::atomic<size_t> next_chunk{0};
  size_t num_chunks = 0;  // set once before any helper is queued
  Mutex mu;
  CondVar cv;
  size_t chunks_done DBX_GUARDED_BY(mu) = 0;
  std::vector<Status> chunk_status DBX_GUARDED_BY(mu);  // one slot per chunk
};

// Runs one chunk of [lo, hi), stopping at the chunk's first error.
Status RunChunk(size_t lo, size_t hi, const std::function<Status(size_t)>& fn) {
  Status st;
  try {
    for (size_t i = lo; i < hi && st.ok(); ++i) st = fn(i);
  } catch (const std::exception& e) {
    st = Status::Internal(std::string("parallel task threw: ") + e.what());
  } catch (...) {
    st = Status::Internal("parallel task threw a non-standard exception");
  }
  return st;
}

// Claims chunks until none remain. Both the caller and every helper run this.
void DrainChunks(const std::shared_ptr<ParallelForState>& state, size_t begin,
                 size_t end, size_t grain,
                 const std::function<Status(size_t)>* fn) {
  for (;;) {
    size_t c = state->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= state->num_chunks) return;
    size_t lo = begin + c * grain;
    size_t hi = std::min(end, lo + grain);
    Status st = RunChunk(lo, hi, *fn);
    MutexLock lock(state->mu);
    state->chunk_status[c] = std::move(st);
    if (++state->chunks_done == state->num_chunks) state->cv.NotifyAll();
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  worker_busy_ns_ = std::make_unique<std::atomic<uint64_t>[]>(n);
  for (size_t i = 0; i < n; ++i) {
    worker_busy_ns_[i].store(0, std::memory_order_relaxed);
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto t0 = std::chrono::steady_clock::now();
    task();
    const auto t1 = std::chrono::steady_clock::now();
    worker_busy_ns_[worker_index].fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()),
        std::memory_order_relaxed);
  }
}

ThreadPool::Stats ThreadPool::GetStats() const {
  Stats stats;
  stats.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  stats.parallel_for_calls =
      parallel_for_calls_.load(std::memory_order_relaxed);
  stats.num_threads = workers_.size();
  stats.worker_busy_ns.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    stats.worker_busy_ns.push_back(
        worker_busy_ns_[i].load(std::memory_order_relaxed));
  }
  {
    MutexLock lock(mu_);
    stats.queue_depth = queue_.size();
  }
  return stats;
}

Status ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                               const std::function<Status(size_t)>& fn,
                               size_t max_parallelism) {
  if (begin >= end) return Status::OK();
  parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);
  if (grain == 0) grain = 1;
  auto state = std::make_shared<ParallelForState>();
  state->num_chunks = (end - begin + grain - 1) / grain;
  {
    // Uncontended (no helper exists yet); taken so the analysis sees every
    // chunk_status access under the state mutex.
    MutexLock lock(state->mu);
    state->chunk_status.assign(state->num_chunks, Status::OK());
  }

  size_t helpers = std::min(num_threads(), state->num_chunks - 1);
  if (max_parallelism > 0) {
    helpers = std::min(helpers, max_parallelism - 1);
  }
  const std::function<Status(size_t)>* fn_ptr = &fn;
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state, begin, end, grain, fn_ptr] {
      DrainChunks(state, begin, end, grain, fn_ptr);
    });
  }
  DrainChunks(state, begin, end, grain, fn_ptr);
  MutexLock lock(state->mu);
  while (state->chunks_done != state->num_chunks) state->cv.Wait(state->mu);
  for (Status& st : state->chunk_status) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(
      std::max<size_t>(2, std::thread::hardware_concurrency()));
  return *pool;
}

Status ParallelFor(size_t num_threads, size_t begin, size_t end, size_t grain,
                   const std::function<Status(size_t)>& fn) {
  if (begin >= end) return Status::OK();
  if (num_threads <= 1) {
    // Serial fast path: same chunking and error selection, no pool traffic.
    if (grain == 0) grain = 1;
    Status first;
    for (size_t lo = begin; lo < end; lo += grain) {
      Status st = RunChunk(lo, std::min(end, lo + grain), fn);
      if (first.ok() && !st.ok()) first = std::move(st);
    }
    return first;
  }
  return ThreadPool::Shared().ParallelFor(begin, end, grain, fn, num_threads);
}

size_t TestThreads(size_t fallback) {
  const char* s = std::getenv("DBX_TEST_THREADS");
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || v == 0) return fallback;
  return static_cast<size_t>(v);
}

}  // namespace dbx
