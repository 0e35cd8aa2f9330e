// Fixed-size thread pool and deterministic parallel-for, the execution
// substrate of parallel butterfly counting and BE-Index construction (the
// peel is sequential).
//
// Design constraints (and why this is NOT a work-stealing scheduler):
//
//   * Determinism.  Callers produce per-thread or per-chunk partial results
//     and merge them in thread/chunk-index order.  Chunk boundaries depend
//     only on (range, chunk count), never on timing, so a given input and
//     thread count always yields the same partition.  Dynamic chunk
//     *assignment* (a shared atomic cursor) is allowed — which thread runs
//     a chunk is timing-dependent, but results keyed by chunk index or
//     summed per edge are order-independent, so outputs stay bit-identical
//     run to run.
//   * A 1-thread pool executes everything inline on the calling thread —
//     no workers are spawned, no synchronization happens.  It is the only
//     sequential path: callers given no pool run the same chunked code on
//     an inline 1-thread pool instead of keeping a separate loop.
//
// Thread-count resolution: explicit ParallelOptions::num_threads wins,
// else the BITRUSS_NUM_THREADS environment variable, else 1 (parallelism
// is opt-in; the default pipeline behaves exactly as before).

#ifndef BITRUSS_UTIL_THREAD_POOL_H_
#define BITRUSS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace bitruss {

/// Thread-count knob shared by every parallel entry point.
struct ParallelOptions {
  /// 0 resolves from BITRUSS_NUM_THREADS (default 1 when unset).
  unsigned num_threads = 0;
};

/// Resolved thread count: options > environment > 1.  Values are clamped
/// to [1, 256]; the environment variable is re-read on every call so tests
/// can toggle it.
inline unsigned ResolveNumThreads(const ParallelOptions& options = {}) {
  constexpr unsigned kMaxThreads = 256;
  unsigned n = options.num_threads;
  if (n == 0) {
    if (const char* env = std::getenv("BITRUSS_NUM_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) n = static_cast<unsigned>(parsed);
    }
  }
  if (n == 0) n = 1;
  return n < kMaxThreads ? n : kMaxThreads;
}

/// Fixed pool of num_threads workers (the calling thread counts as worker
/// 0; num_threads - 1 are spawned).  One parallel region runs at a time;
/// the pool itself is not re-entrant and must outlive its regions.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned num_threads)
      : num_threads_(num_threads == 0 ? 1 : num_threads) {
    workers_.reserve(num_threads_ - 1);
    for (unsigned t = 1; t < num_threads_; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    work_cv_.NotifyAll();
    for (std::thread& worker : workers_) worker.join();
  }

  unsigned NumThreads() const { return num_threads_; }

  /// Splits [begin, end) into `num_chunks` near-equal contiguous chunks
  /// (chunk boundaries are a pure function of the range and chunk count)
  /// and runs fn(chunk_begin, chunk_end, chunk_index, thread_index) for
  /// each, pulling chunks from a shared cursor.  thread_index < NumThreads()
  /// identifies the executing worker for per-thread scratch; chunk_index <
  /// num_chunks keys order-sensitive partial results.  Blocks until every
  /// chunk completes.  Empty chunks are skipped.
  template <typename Fn>
  void ParallelForChunks(std::uint64_t begin, std::uint64_t end,
                         unsigned num_chunks, Fn&& fn) {
    if (begin >= end) return;
    const std::uint64_t n = end - begin;
    if (num_chunks == 0) num_chunks = 1;
    if (num_chunks > n) num_chunks = static_cast<unsigned>(n);

    const auto chunk_bounds = [=](unsigned c) {
      // Chunk c covers [begin + c*n/k, begin + (c+1)*n/k): deterministic,
      // sizes differ by at most one.
      const std::uint64_t k = num_chunks;
      return std::pair<std::uint64_t, std::uint64_t>(
          begin + c * n / k, begin + (c + 1) * n / k);
    };

    if (num_threads_ == 1 || num_chunks == 1) {
      for (unsigned c = 0; c < num_chunks; ++c) {
        const auto [b, e] = chunk_bounds(c);
        if (b < e) fn(b, e, c, 0u);
      }
      return;
    }

    std::atomic<unsigned> cursor{0};
    const auto run = [&](unsigned thread_index) {
      for (unsigned c = cursor.fetch_add(1, std::memory_order_relaxed);
           c < num_chunks;
           c = cursor.fetch_add(1, std::memory_order_relaxed)) {
        const auto [b, e] = chunk_bounds(c);
        if (b < e) fn(b, e, c, thread_index);
      }
    };
    Dispatch(run);
  }

  /// One contiguous chunk per thread: fn(chunk_begin, chunk_end,
  /// thread_index).  The static partition is a pure function of the range
  /// and pool size.
  template <typename Fn>
  void ParallelFor(std::uint64_t begin, std::uint64_t end, Fn&& fn) {
    ParallelForChunks(begin, end, num_threads_,
                      [&fn](std::uint64_t b, std::uint64_t e, unsigned chunk,
                            unsigned) { fn(b, e, chunk); });
  }

 private:
  // Runs job(thread_index) on every pool thread (workers get 1..N-1, the
  // caller runs 0) and waits for all of them.
  void Dispatch(const std::function<void(unsigned)>& job) {
    {
      MutexLock lock(mu_);
      job_ = &job;
      ++generation_;
      pending_ = static_cast<unsigned>(workers_.size());
    }
    work_cv_.NotifyAll();
    job(0);
    MutexLock lock(mu_);
    while (pending_ != 0) done_cv_.Wait(lock);
    job_ = nullptr;
  }

  void WorkerLoop() {
    unsigned thread_index = 0;
    {
      MutexLock lock(mu_);
      thread_index = ++spawned_;
    }
    std::uint64_t seen_generation = 0;
    for (;;) {
      const std::function<void(unsigned)>* job = nullptr;
      {
        MutexLock lock(mu_);
        while (!shutdown_ && generation_ == seen_generation) {
          work_cv_.Wait(lock);
        }
        if (shutdown_) return;
        seen_generation = generation_;
        job = job_;
      }
      (*job)(thread_index);
      {
        MutexLock lock(mu_);
        if (--pending_ == 0) done_cv_.NotifyAll();
      }
    }
  }

  const unsigned num_threads_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  const std::function<void(unsigned)>* job_ GUARDED_BY(mu_) = nullptr;
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
  unsigned pending_ GUARDED_BY(mu_) = 0;
  unsigned spawned_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace bitruss

#endif  // BITRUSS_UTIL_THREAD_POOL_H_
