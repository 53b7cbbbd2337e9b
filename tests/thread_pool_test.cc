#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace mpc {
namespace {

TEST(ResolveNumThreadsTest, PositiveTakenVerbatim) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
}

TEST(ResolveNumThreadsTest, NonPositiveMeansHardware) {
  // 0 and negatives resolve to hardware_concurrency, which is >= 1 even
  // when the runtime reports 0.
  EXPECT_GE(ResolveNumThreads(0), 1);
  EXPECT_GE(ResolveNumThreads(-3), 1);
  EXPECT_EQ(ResolveNumThreads(0), ResolveNumThreads(-1));
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, WaitRethrowsFirstExceptionAndClearsIt) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The exception is consumed; the pool stays usable.
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  EXPECT_NO_THROW(pool.Wait());
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // ~ThreadPool drains, then joins.
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<int> visits(1000, 0);
    ParallelFor(0, visits.size(), 7, threads,
                [&](size_t i) { visits[i] += 1; });
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 1000)
        << "threads=" << threads;
    for (int v : visits) EXPECT_EQ(v, 1);
  }
}

TEST(ParallelForTest, EmptyRangeAndZeroGrain) {
  int calls = 0;
  ParallelFor(5, 5, 4, 8, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // grain 0 is treated as 1.
  std::atomic<int> atomic_calls{0};
  ParallelFor(0, 10, 0, 4, [&](size_t) { atomic_calls.fetch_add(1); });
  EXPECT_EQ(atomic_calls.load(), 10);
}

TEST(ParallelForTest, PerIndexWritesAreBitIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    std::vector<uint64_t> out(4096);
    ParallelFor(0, out.size(), 64, threads,
                [&](size_t i) { out[i] = i * 2654435761u; });
    return out;
  };
  const std::vector<uint64_t> serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ParallelForTest, PropagatesExceptionFromBody) {
  for (int threads : {1, 2, 8}) {
    EXPECT_THROW(
        ParallelFor(0, 100, 1, threads,
                    [](size_t i) {
                      if (i == 37) throw std::runtime_error("bad index");
                    }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ParallelForTest, NestedLoopsFinishAndVisitEveryIndexOnce) {
  // Every outer chunk runs an inner ParallelFor: the inner calls find the
  // shared pool's workers busy with outer chunks and must still finish.
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 8;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  ParallelFor(0, kOuter, 1, 8, [&](size_t i) {
    ParallelFor(0, kInner, 1, 8, [&](size_t j) {
      visits[i * kInner + j].fetch_add(1);
    });
  });
  for (const std::atomic<int>& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, ConcurrentCallersEachGetTheirOwnResults) {
  constexpr size_t kCallers = 4;
  constexpr size_t kItems = 2000;
  std::vector<std::vector<uint64_t>> out(kCallers,
                                         std::vector<uint64_t>(kItems));
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&out, c] {
      for (int round = 0; round < 20; ++round) {
        ParallelFor(0, kItems, 16, 4, [&](size_t i) {
          out[c][i] = (c + 1) * 1000003u + i;
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(out[c][i], (c + 1) * 1000003u + i) << "caller " << c;
    }
  }
}

TEST(ParallelForTest, NextCallWorksAfterAnException) {
  EXPECT_THROW(ParallelFor(0, 64, 1, 4,
                           [](size_t i) {
                             if (i % 5 == 3) throw std::runtime_error("bad");
                           }),
               std::runtime_error);
  std::vector<int> visits(64, 0);
  ParallelFor(0, visits.size(), 1, 4, [&](size_t i) { visits[i] += 1; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, SerialFallbackRunsOnCallingThread) {
  // threads=1 never reaches the pool: the body sees the caller's thread.
  const std::thread::id caller = std::this_thread::get_id();
  ParallelFor(0, 16, 4, 1, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

}  // namespace
}  // namespace mpc
