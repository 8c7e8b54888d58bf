// Unit tests for the parallel-execution layer, plus the thread hammers the
// `tsan` preset runs (tools/check.sh): pool batches under contention and
// concurrent SimCache lookups must be race-free AND bit-identical to the
// serial path.

#include "tglink/util/parallel.h"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/linkage/config.h"
#include "tglink/obs/metrics.h"
#include "tglink/similarity/sim_cache.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

/// Restores the serial default so tests cannot leak a pool into each other.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { SetParallelThreadCount(1); }
};

TEST(ParallelTest, ThreadCountResolution) {
  ThreadCountGuard guard;
  SetParallelThreadCount(1);
  EXPECT_EQ(ParallelThreadCount(), 1);
  SetParallelThreadCount(3);
  EXPECT_EQ(ParallelThreadCount(), 3);
  // 0 resolves to hardware concurrency — at least one worker, whatever the
  // machine.
  SetParallelThreadCount(0);
  EXPECT_GE(ParallelThreadCount(), 1);
}

TEST(ParallelTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 4}) {
    SetParallelThreadCount(threads);
    constexpr size_t kN = 10007;  // prime: exercises a ragged last chunk
    std::vector<std::atomic<int>> touched(kN);
    ParallelFor(kN, "test.cover", [&touched](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        touched[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(touched[i].load(), 1) << "index " << i << " at " << threads
                                      << " threads";
    }
  }
}

TEST(ParallelTest, ParallelMapMatchesSerialInOrderAndValue) {
  ThreadCountGuard guard;
  constexpr size_t kN = 5000;
  auto fn = [](size_t i) {
    return std::sqrt(static_cast<double>(i)) * 0.25 + 1.0 / (1.0 + i);
  };
  SetParallelThreadCount(1);
  const std::vector<double> serial = ParallelMap<double>(kN, "test.map", fn);
  for (int threads : {2, 4}) {
    SetParallelThreadCount(threads);
    const std::vector<double> parallel =
        ParallelMap<double>(kN, "test.map", fn);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < kN; ++i) {
      // Bit-identical, not approximately equal: the determinism contract.
      ASSERT_EQ(parallel[i], serial[i]) << "index " << i;
    }
  }
}

TEST(ParallelTest, EmptyRangeIsANoop) {
  ThreadCountGuard guard;
  SetParallelThreadCount(2);
  bool called = false;
  ParallelFor(0, "test.empty", [&called](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_TRUE(ParallelMap<int>(0, "test.empty", [](size_t) { return 1; })
                  .empty());
}

TEST(ParallelTest, NestedSectionRunsInlineOnTheWorker) {
  ThreadCountGuard guard;
  SetParallelThreadCount(2);
  EXPECT_FALSE(InParallelWorker());
  std::atomic<int> inner_total{0};
  std::atomic<int> worker_observed{0};
  ParallelFor(8, "test.outer", [&](size_t begin, size_t end) {
    if (InParallelWorker()) worker_observed.fetch_add(1);
    // A nested section must not deadlock on the busy pool; it runs inline.
    ParallelFor(end - begin, "test.inner", [&](size_t b, size_t e) {
      inner_total.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(inner_total.load(), 8);
  EXPECT_GT(worker_observed.load(), 0);
  EXPECT_FALSE(InParallelWorker());
}

TEST(ParallelTest, ExceptionInChunkIsRethrownToTheCaller) {
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    EXPECT_THROW(
        ParallelFor(64, "test.throw",
                    [](size_t begin, size_t) {
                      if (begin >= 32) throw std::runtime_error("chunk");
                    }),
        std::runtime_error);
    // The pool must stay usable after a failed batch.
    const std::vector<int> ok =
        ParallelMap<int>(16, "test.recover",
                         [](size_t i) { return static_cast<int>(i) * 2; });
    EXPECT_EQ(ok[15], 30);
  }
}

TEST(ParallelTest, ReportsTasksAndThreadsToObs) {
  ThreadCountGuard guard;
  obs::GlobalMetrics().ResetAllForTesting();
  SetParallelThreadCount(2);
  ParallelFor(1000, "test.obs", [](size_t, size_t) {});
  EXPECT_GT(obs::GlobalMetrics().GetCounter("parallel.tasks").Value(), 0u);
}

TEST(ParallelTest, PoolHammerManyBatchesUnderContention) {
  // tsan target: rapid batch turnaround with all workers contending on the
  // batch mutex and the shared metrics registry.
  ThreadCountGuard guard;
  SetParallelThreadCount(4);
  std::atomic<long> total{0};
  constexpr int kBatches = 200;
  constexpr size_t kN = 257;
  for (int b = 0; b < kBatches; ++b) {
    ParallelFor(kN, "test.hammer", [&total](size_t begin, size_t end) {
      long local = 0;
      for (size_t i = begin; i < end; ++i) {
        local += static_cast<long>(i);
        TGLINK_COUNTER_INC("test.hammer_iterations");
      }
      total.fetch_add(local, std::memory_order_relaxed);
    });
  }
  const long expected_per_batch = static_cast<long>(kN * (kN - 1) / 2);
  EXPECT_EQ(total.load(), kBatches * expected_per_batch);
}

TEST(ParallelTest, SimCacheHammerConcurrentLookupsStayBitIdentical) {
  // tsan target: pool workers hitting the sharded memo concurrently, with
  // every distinct value pair inserted exactly while others read. Results
  // must equal the uncached serial scores bit for bit. Monge-Elkan and
  // double-metaphone have no kernel, so SimCache memoizes them; the Dice
  // and age components score lock-free alongside.
  ThreadCountGuard guard;
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction fn({{Field::kFirstName, Measure::kMongeElkan, 2.0},
                         {Field::kSurname, Measure::kDoubleMetaphone, 2.0},
                         {Field::kAddress, Measure::kMongeElkan, 1.0},
                         {Field::kSurname, Measure::kQGramDice, 1.0},
                         {Field::kAge, Measure::kExact, 1.0}},
                        /*threshold=*/0.7);
  fn.set_year_gap(10);

  const size_t n_pairs = old_d.num_records() * new_d.num_records();
  std::vector<double> expected(n_pairs);
  for (size_t i = 0; i < n_pairs; ++i) {
    expected[i] = fn.AggregateSimilarity(
        old_d.record(static_cast<RecordId>(i / new_d.num_records())),
        new_d.record(static_cast<RecordId>(i % new_d.num_records())));
  }

  SetParallelThreadCount(4);
  const SimCache cache(fn, old_d, new_d);
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    const std::vector<double> got =
        ParallelMap<double>(n_pairs, "test.simcache_hammer", [&](size_t i) {
          return cache.Aggregate(
              static_cast<RecordId>(i / new_d.num_records()),
              static_cast<RecordId>(i % new_d.num_records()));
        });
    for (size_t i = 0; i < n_pairs; ++i) {
      ASSERT_EQ(got[i], expected[i]) << "pair " << i << " round " << round;
    }
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(ParallelTest, SimBatchHammerThresholdScoringStaysBitIdentical) {
  // tsan target for the kernels: lock-free reads over the immutable
  // arena plus thread-local kernel scratch, with the pruning screen active.
  // Non-pruned values must equal the serial direct scores bit for bit, and
  // pruning must never drop a pair at or above the cutoff.
  ThreadCountGuard guard;
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction fn = configs::DefaultConfig().sim_func;
  fn.set_year_gap(10);
  constexpr double kMinSim = 0.7;

  const size_t n_pairs = old_d.num_records() * new_d.num_records();
  std::vector<double> expected(n_pairs);
  for (size_t i = 0; i < n_pairs; ++i) {
    expected[i] = fn.AggregateSimilarity(
        old_d.record(static_cast<RecordId>(i / new_d.num_records())),
        new_d.record(static_cast<RecordId>(i % new_d.num_records())));
  }

  SetParallelThreadCount(4);
  const SimCache cache(fn, old_d, new_d);
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    const std::vector<double> got =
        ParallelMap<double>(n_pairs, "test.simbatch_hammer", [&](size_t i) {
          return cache.AggregateWithThreshold(
              static_cast<RecordId>(i / new_d.num_records()),
              static_cast<RecordId>(i % new_d.num_records()), kMinSim);
        });
    for (size_t i = 0; i < n_pairs; ++i) {
      if (got[i] == SimCache::kPruned) {
        ASSERT_LT(expected[i], kMinSim) << "pair " << i << " round " << round;
      } else {
        ASSERT_EQ(got[i], expected[i]) << "pair " << i << " round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace tglink
