// Unit tests for the deterministic parallel substrate: sharding math,
// pool lifecycle and reuse, concurrent batch submission and capped
// leases and posted tasks (the service's pool-sharing substrate),
// Status/exception propagation, and the shard-order merge guarantee of
// ParallelReduce.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace privmark {
namespace {

TEST(ShardRangesTest, EmptyCountYieldsNoShards) {
  EXPECT_TRUE(ShardRanges(0, 1).empty());
  EXPECT_TRUE(ShardRanges(0, 8).empty());
}

TEST(ShardRangesTest, SingleElement) {
  const auto shards = ShardRanges(1, 8);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], (ShardRange{0, 1}));
}

TEST(ShardRangesTest, ZeroShardsTreatedAsOne) {
  const auto shards = ShardRanges(5, 0);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], (ShardRange{0, 5}));
}

TEST(ShardRangesTest, FewerElementsThanShardsAllNonEmpty) {
  const auto shards = ShardRanges(3, 7);
  ASSERT_EQ(shards.size(), 3u);
  for (size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(shards[s].size(), 1u) << "shard " << s;
  }
}

TEST(ShardRangesTest, CoversRangeContiguouslyWithBalancedSizes) {
  for (size_t count : {1u, 2u, 7u, 100u, 101u, 20000u}) {
    for (size_t n : {1u, 2u, 3u, 7u, 8u, 64u}) {
      const auto shards = ShardRanges(count, n);
      ASSERT_EQ(shards.size(), std::min<size_t>(n, count));
      size_t expected_begin = 0;
      size_t min_size = count;
      size_t max_size = 0;
      for (const ShardRange& shard : shards) {
        EXPECT_EQ(shard.begin, expected_begin);
        EXPECT_GT(shard.size(), 0u);
        min_size = std::min(min_size, shard.size());
        max_size = std::max(max_size, shard.size());
        expected_begin = shard.end;
      }
      EXPECT_EQ(expected_begin, count);
      EXPECT_LE(max_size - min_size, 1u) << count << " over " << n;
    }
  }
}

TEST(ShardRangesTest, DependsOnlyOnCountAndShards) {
  EXPECT_EQ(ShardRanges(12345, 7), ShardRanges(12345, 7));
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(10, 0);
  pool.Run(10, [&](size_t i) { hits[i] = static_cast<int>(i) + 1; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], static_cast<int>(i) + 1);
  }
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, EmptyBatchIsANoOp) {
  ThreadPool pool(4);
  pool.Run(0, [&](size_t) { FAIL() << "task ran for an empty batch"; });
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.Run(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, PoolReusableAcrossSubmissions) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.Run(17, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 17u * 18u / 2u) << "round " << round;
  }
}

TEST(ThreadPoolTest, WorkerExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.Run(16, [&](size_t i) {
      if (i == 5 || i == 11) {
        throw std::runtime_error("task " + std::to_string(i));
      }
      completed.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Deterministic choice: the lowest-numbered throwing task.
    EXPECT_STREQ(e.what(), "task 5");
  }
  // Every non-throwing task still ran (no partial abandonment).
  EXPECT_EQ(completed.load(), 14);
  // The pool survives a throwing batch.
  std::atomic<size_t> sum{0};
  pool.Run(8, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 28u);
}

TEST(ThreadPoolTest, SerialPathExceptionAlsoPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.Run(3,
                        [](size_t i) {
                          if (i == 1) throw std::logic_error("boom");
                        }),
               std::logic_error);
}

TEST(MakeThreadPoolTest, OneThreadMeansNoPool) {
  EXPECT_EQ(MakeThreadPool(1), nullptr);
  const auto pool = MakeThreadPool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 3u);
  const auto hw = MakeThreadPool(0);
  ASSERT_NE(hw, nullptr);
  EXPECT_GE(hw->num_threads(), 1u);
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<char> seen(100, 0);
  const Status status =
      ParallelFor(nullptr, seen.size(), [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) seen[i] = 1;
        return Status::OK();
      });
  ASSERT_TRUE(status.ok());
  for (char c : seen) EXPECT_EQ(c, 1);
}

TEST(ParallelForTest, EmptyRangeOk) {
  ThreadPool pool(4);
  const Status status = ParallelFor(&pool, 0, [&](size_t, size_t, size_t) {
    return Status::InvalidArgument("must not run");
  });
  EXPECT_TRUE(status.ok());
}

TEST(ParallelForTest, CoversRangeOnPool) {
  ThreadPool pool(4);
  std::vector<char> seen(1001, 0);
  const Status status =
      ParallelFor(&pool, seen.size(), [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) seen[i] = 1;  // shard-owned
        return Status::OK();
      });
  ASSERT_TRUE(status.ok());
  for (char c : seen) EXPECT_EQ(c, 1);
}

TEST(ParallelForTest, FirstFailingShardInShardOrderWins) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    const Status status =
        ParallelFor(&pool, 1000, [&](size_t shard, size_t, size_t) {
          if (shard >= 1) {
            return Status::OutOfRange("shard " + std::to_string(shard));
          }
          return Status::OK();
        });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
    // Shards 1, 2, 3 all fail; shard order makes shard 1 the answer.
    EXPECT_EQ(status.message(), "shard 1");
  }
}

TEST(ParallelReduceTest, EmptyCountReturnsInit) {
  ThreadPool pool(4);
  const Result<int> result = ParallelReduce<int>(
      &pool, 0, 42,
      [](size_t, size_t, size_t) -> Result<int> {
        return Status::InvalidArgument("must not run");
      },
      [](int* acc, int&& x) { *acc += x; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ParallelReduceTest, SumsMatchSerial) {
  ThreadPool pool(3);
  const size_t n = 12345;
  const Result<uint64_t> result = ParallelReduce<uint64_t>(
      &pool, n, uint64_t{0},
      [](size_t, size_t begin, size_t end) -> Result<uint64_t> {
        uint64_t sum = 0;
        for (size_t i = begin; i < end; ++i) sum += i;
        return sum;
      },
      [](uint64_t* acc, uint64_t&& x) { *acc += x; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, uint64_t{n} * (n - 1) / 2);
}

TEST(ParallelReduceTest, MergeRunsInShardOrder) {
  // The merge order is the heart of the byte-identical guarantee: collect
  // shard indices through the merge and require ascending order, many
  // times, under real concurrency.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const Result<std::vector<size_t>> result =
        ParallelReduce<std::vector<size_t>>(
            &pool, 100, {},
            [](size_t shard, size_t, size_t) -> Result<std::vector<size_t>> {
              return std::vector<size_t>{shard};
            },
            [](std::vector<size_t>* acc, std::vector<size_t>&& x) {
              acc->insert(acc->end(), x.begin(), x.end());
            });
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->size(), 4u);
    for (size_t s = 0; s < result->size(); ++s) {
      EXPECT_EQ((*result)[s], s) << "round " << round;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentSubmittersEachCompleteTheirBatch) {
  // The service shares one pool across session strands: many threads
  // submit fork-join batches at once, and every submitter must get all
  // of its own tasks executed exactly once.
  ThreadPool pool(4);
  constexpr size_t kSubmitters = 6;
  constexpr size_t kTasks = 64;
  constexpr int kRounds = 25;
  std::vector<std::array<std::atomic<int>, kTasks>> hits(kSubmitters);
  std::vector<std::thread> submitters;
  for (size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &hits, s] {
      for (int round = 0; round < kRounds; ++round) {
        pool.Run(kTasks, [&hits, s](size_t i) {
          hits[s][i].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (size_t s = 0; s < kSubmitters; ++s) {
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[s][i].load(), kRounds) << "submitter " << s << " task "
                                            << i;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentSubmitterExceptionsStayWithTheirBatch) {
  ThreadPool pool(3);
  std::atomic<int> clean_runs{0};
  std::thread thrower([&pool] {
    for (int round = 0; round < 20; ++round) {
      EXPECT_THROW(
          pool.Run(8,
                   [](size_t i) {
                     if (i == 3) throw std::runtime_error("batch error");
                   }),
          std::runtime_error);
    }
  });
  std::thread quiet([&pool, &clean_runs] {
    for (int round = 0; round < 20; ++round) {
      pool.Run(8, [&clean_runs](size_t) {
        clean_runs.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  thrower.join();
  quiet.join();
  EXPECT_EQ(clean_runs.load(), 20 * 8);
}

TEST(ThreadPoolLeaseTest, ReportsCappedThreadCount) {
  ThreadPool pool(4);
  const auto lease = ThreadPool::Lease(&pool, 2);
  EXPECT_TRUE(lease->is_lease());
  EXPECT_FALSE(pool.is_lease());
  EXPECT_EQ(lease->num_threads(), 2u);
  // The parent bounds the lease: a grant can never exceed the pool.
  const auto wide = ThreadPool::Lease(&pool, 64);
  EXPECT_EQ(wide->num_threads(), 4u);
}

TEST(ThreadPoolLeaseTest, SetLimitReCapsAndClampsToOne) {
  ThreadPool pool(4);
  const auto lease = ThreadPool::Lease(&pool, 4);
  lease->set_limit(3);
  EXPECT_EQ(lease->num_threads(), 3u);
  lease->set_limit(0);  // a lease is never smaller than its caller
  EXPECT_EQ(lease->num_threads(), 1u);
}

TEST(ThreadPoolLeaseTest, RunForwardsToParentWorkers) {
  ThreadPool pool(4);
  const auto lease = ThreadPool::Lease(&pool, 2);
  std::vector<std::atomic<int>> hits(32);
  lease->Run(hits.size(), [&hits](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolLeaseTest, ShardsCutToTheGrantNotTheParent) {
  // The service's request width in one assertion: agents shard by
  // pool->num_threads(), so a leased pool must make them cut to the
  // lease's width, not the shared pool's full width.
  ThreadPool pool(8);
  const auto lease = ThreadPool::Lease(&pool, 3);
  EXPECT_EQ(ShardRanges(1000, lease->num_threads()).size(), 3u);
  const Result<std::vector<size_t>> result =
      ParallelReduce<std::vector<size_t>>(
          lease.get(), 1000, {},
          [](size_t shard, size_t, size_t) -> Result<std::vector<size_t>> {
            return std::vector<size_t>{shard};
          },
          [](std::vector<size_t>* acc, std::vector<size_t>&& x) {
            acc->insert(acc->end(), x.begin(), x.end());
          });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // three shards — the grant, not eight
}

TEST(ThreadPoolPostTest, PostedTasksRunOffTheCallerAndMayRunBatches) {
  // Each posted task submits a batch to the same pool, as a service turn
  // does. Two background workers run six such tasks without deadlock,
  // and none of the work lands on the posting thread.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<size_t> tasks_on_caller{0};
  std::atomic<size_t> batch_hits{0};
  std::vector<std::promise<void>> done(6);
  std::vector<std::future<void>> finished;
  for (std::promise<void>& promise : done) {
    finished.push_back(promise.get_future());
    pool.Post([&, promise = &promise] {
      if (std::this_thread::get_id() == caller) ++tasks_on_caller;
      pool.Run(4, [&](size_t) { ++batch_hits; });
      promise->set_value();
    });
  }
  for (std::future<void>& future : finished) future.wait();
  EXPECT_EQ(tasks_on_caller.load(), 0u);
  EXPECT_EQ(batch_hits.load(), 24u);
}

TEST(ParallelReduceTest, MapErrorPropagatesLowestShard) {
  ThreadPool pool(4);
  const Result<int> result = ParallelReduce<int>(
      &pool, 1000, 0,
      [](size_t shard, size_t, size_t) -> Result<int> {
        if (shard == 2 || shard == 3) {
          return Status::KeyError("shard " + std::to_string(shard));
        }
        return 1;
      },
      [](int* acc, int&& x) { *acc += x; });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kKeyError);
  EXPECT_EQ(result.status().message(), "shard 2");
}

}  // namespace
}  // namespace privmark
