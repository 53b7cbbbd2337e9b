#include "common/thread_pool.h"

#include <atomic>
#include <memory>

namespace mpc {

int ResolveNumThreads(int num_threads) {
  if (num_threads >= 1) return num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  const int resolved = ResolveNumThreads(num_threads);
  workers_.reserve(static_cast<size_t>(resolved));
  for (int i = 0; i < resolved; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_) {
    std::exception_ptr e = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_exception_) first_exception_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace internal {

namespace {

/// The process-wide pool behind every ParallelFor: the callers make up the
/// remaining thread, so hardware_concurrency - 1 workers (at least one).
/// Created on first use and joined at exit.
ThreadPool& SharedPool() {
  static ThreadPool pool(std::max(1, ResolveNumThreads(0) - 1));
  return pool;
}

/// One RunChunks call. Shared between the caller and its helper tasks, so
/// a helper that reaches the pool after the call has returned still finds
/// a live job with no chunk left and never touches `run_chunk`.
struct ChunkJob {
  ChunkJob(size_t n, FunctionRef<void(size_t)> fn)
      : num_chunks(n), run_chunk(fn) {}

  /// Claims and runs chunks until none is left.
  void Drain() {
    for (;;) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      std::exception_ptr thrown;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          run_chunk(c);
        } catch (...) {
          thrown = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (thrown && !error) {
        error = thrown;
        failed.store(true, std::memory_order_relaxed);
      }
      if (++done == num_chunks) finished.notify_all();
    }
  }

  const size_t num_chunks;
  const FunctionRef<void(size_t)> run_chunk;
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable finished;
  size_t done = 0;             // guarded by mutex
  std::exception_ptr error;    // guarded by mutex
};

}  // namespace

void RunChunks(size_t num_chunks, int threads,
               FunctionRef<void(size_t)> run_chunk) {
  auto job = std::make_shared<ChunkJob>(num_chunks, run_chunk);
  ThreadPool& pool = SharedPool();
  const size_t helpers = std::min({static_cast<size_t>(threads) - 1,
                                   num_chunks - 1,
                                   static_cast<size_t>(pool.num_threads())});
  for (size_t h = 0; h < helpers; ++h) pool.Submit([job] { job->Drain(); });
  job->Drain();
  std::unique_lock<std::mutex> lock(job->mutex);
  job->finished.wait(lock, [&] { return job->done == num_chunks; });
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace internal

}  // namespace mpc
