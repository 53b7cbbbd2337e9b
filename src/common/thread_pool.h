#ifndef MPC_COMMON_THREAD_POOL_H_
#define MPC_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/function_ref.h"

namespace mpc {

/// Resolves a user-facing thread-count option: n >= 1 is taken verbatim,
/// n <= 0 means "one worker per hardware thread" (at least 1 when the
/// hardware concurrency is unknown). All num_threads options in this
/// codebase share this convention: 0 = hardware_concurrency, 1 = serial.
int ResolveNumThreads(int num_threads);

/// Minimal fixed-size worker pool over one FIFO task queue — no work
/// stealing, no priorities. Tasks are void() callables; the first
/// exception a task throws is captured and rethrown from Wait().
///
/// One process-wide instance (below) backs every ParallelFor: per-property
/// cost evaluation, the sharded N-Triples parse, per-site partition
/// materialization and save, and per-site BGP matching all run through it.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (resolved via ResolveNumThreads).
  explicit ThreadPool(int num_threads);

  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Thread-safe against other Submit/Wait calls.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task threw (clearing it, so the pool stays
  /// usable).
  void Wait();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently running
  bool stopping_ = false;
  std::exception_ptr first_exception_;
  std::vector<std::thread> workers_;
};

namespace internal {

/// Runs run_chunk(c) once for every c in [0, num_chunks) on the calling
/// thread plus up to `threads - 1` workers of the process-wide pool
/// (created on first use with hardware_concurrency - 1 workers, at least
/// one). The caller claims chunks too and only waits for chunks that a
/// worker is already running, so a nested call, or calls from several
/// threads at once, always finish even when every worker is busy. After
/// the first exception no further chunk starts; it is rethrown here once
/// the running chunks have finished.
void RunChunks(size_t num_chunks, int threads,
               FunctionRef<void(size_t)> run_chunk);

}  // namespace internal

/// Data-parallel loop: invokes fn(i) for every i in [begin, end). The
/// range is cut into contiguous chunks of at most `grain` indices and
/// the chunks are executed by the caller plus at most
/// ResolveNumThreads(num_threads) - 1 workers of the process-wide pool.
///
/// With one thread (or a single chunk) this is the plain serial loop on
/// the calling thread; the pool is not touched. Chunk boundaries depend
/// only on (begin, end, grain), never on the thread count, and threads
/// only decide *when* a chunk runs, not what it computes — so callers
/// that write results into per-index (or per-chunk) slots get
/// bit-identical output at every thread count. The first exception
/// thrown by fn propagates to the caller.
template <typename Fn>
void ParallelFor(size_t begin, size_t end, size_t grain, int num_threads,
                 Fn&& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t count = end - begin;
  const size_t num_chunks = (count + grain - 1) / grain;
  const int threads = ResolveNumThreads(num_threads);
  if (threads <= 1 || num_chunks <= 1) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  internal::RunChunks(num_chunks, threads, [&](size_t c) {
    const size_t lo = begin + c * grain;
    const size_t hi = std::min(end, lo + grain);
    for (size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace mpc

#endif  // MPC_COMMON_THREAD_POOL_H_
