// SimCache correctness: the arena path must be bit-identical to the direct
// SimilarityFunction path (they share the kernels and the AggregateWith
// arithmetic), hits/misses of the memoized measures must reflect the skew
// of the value pools, missing-value handling must mirror
// ComponentSimilarity exactly, and threshold-aware scoring must never prune
// a pair at or above the cutoff.

#include "tglink/similarity/sim_cache.h"

#include <gtest/gtest.h>

#include "tglink/linkage/config.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

SimilarityFunction PaperSimFunc() {
  SimilarityFunction fn = configs::DefaultConfig().sim_func;
  fn.set_year_gap(10);
  return fn;
}

/// Components without a kernel, which SimCache memoizes, next to
/// kernel-backed ones, which it does not.
SimilarityFunction MemoizedSimFunc() {
  SimilarityFunction fn({{Field::kFirstName, Measure::kMongeElkan, 2.0},
                         {Field::kSurname, Measure::kDoubleMetaphone, 2.0},
                         {Field::kSurname, Measure::kQGramDice, 1.0},
                         {Field::kAge, Measure::kExact, 1.0}},
                        /*threshold=*/0.7);
  fn.set_year_gap(10);
  return fn;
}

TEST(SimCacheTest, BitIdenticalToDirectAggregationOverFullCrossProduct) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  for (const SimilarityFunction& fn : {PaperSimFunc(), MemoizedSimFunc()}) {
    const SimCache cache(fn, old_d, new_d);
    for (RecordId o = 0; o < old_d.num_records(); ++o) {
      for (RecordId n = 0; n < new_d.num_records(); ++n) {
        const double direct =
            fn.AggregateSimilarity(old_d.record(o), new_d.record(n));
        // EXPECT_EQ, not NEAR: the cache must reproduce the exact bits,
        // both on first computation and on memo replay.
        EXPECT_EQ(cache.Aggregate(o, n), direct)
            << fn.ToString() << " pair (" << o << "," << n << ") first pass";
        EXPECT_EQ(cache.Aggregate(o, n), direct)
            << fn.ToString() << " pair (" << o << "," << n
            << ") cached pass";
      }
    }
  }
}

TEST(SimCacheTest, RepeatedValuePairsHitTheMemo) {
  // Only the measures without a kernel (here Monge-Elkan and
  // double-metaphone) go through the memo.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = MemoizedSimFunc();
  const SimCache cache(fn, old_d, new_d);

  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      (void)cache.Aggregate(o, n);
    }
  }
  const uint64_t first_pass_misses = cache.misses();
  // The census fixture reuses names heavily (three johns, three
  // elizabeths, two smith households...), so even the first full pass must
  // find repeated (value, value) component pairs.
  EXPECT_GT(first_pass_misses, 0u);
  EXPECT_GT(cache.hits(), 0u);

  // A second pass over the same pairs computes nothing new.
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      (void)cache.Aggregate(o, n);
    }
  }
  EXPECT_EQ(cache.misses(), first_pass_misses);
}

TEST(SimCacheTest, KernelMeasuresGenerateNoMemoTraffic) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  const SimCache cache(fn, old_d, new_d);
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      (void)cache.Aggregate(o, n);
    }
  }
  // Every default-config measure has a kernel, so the memo (and its locks)
  // must stay completely cold.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(SimCacheTest, MissingValuesFollowTheDirectPath) {
  // Records with empty occupation / age exercise every missing-value branch;
  // the cache must agree with the direct path on all of them, under every
  // missing policy, for kernel-backed and memoized components alike.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  for (const SimilarityFunction& base : {PaperSimFunc(), MemoizedSimFunc()}) {
    for (MissingPolicy policy :
         {MissingPolicy::kRedistribute, MissingPolicy::kZero,
          MissingPolicy::kNeutral}) {
      SimilarityFunction fn = base;
      fn.set_missing_policy(policy);
      const SimCache cache(fn, old_d, new_d);
      for (RecordId o = 0; o < old_d.num_records(); ++o) {
        for (RecordId n = 0; n < new_d.num_records(); ++n) {
          EXPECT_EQ(cache.Aggregate(o, n),
                    fn.AggregateSimilarity(old_d.record(o), new_d.record(n)))
              << fn.ToString() << " policy " << static_cast<int>(policy)
              << " pair (" << o << "," << n << ")";
        }
      }
    }
  }
}

TEST(SimCacheTest, WorksForOmega1Too) {
  // The ablation similarity function (different specs/weights) must be
  // cacheable through the same layer.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction fn = configs::Omega1();
  fn.set_year_gap(10);
  const SimCache cache(fn, old_d, new_d);
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      EXPECT_EQ(cache.Aggregate(o, n),
                fn.AggregateSimilarity(old_d.record(o), new_d.record(n)))
          << "pair (" << o << "," << n << ")";
    }
  }
}

TEST(SimCacheTest, ThresholdScoringNeverPrunesAKeptPair) {
  // The pruning contract over the full fixture cross-product, at every
  // plausible cutoff: a pruned pair's exact aggregate is strictly below
  // min_sim, and a non-pruned pair's value is bit-identical to the exact
  // one — so keep-sets are identical to the unpruned path at every
  // threshold.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  const SimCache cache(fn, old_d, new_d);
  for (const double min_sim : {0.1, 0.5, 0.7, 0.85, 0.95, 1.0}) {
    for (RecordId o = 0; o < old_d.num_records(); ++o) {
      for (RecordId n = 0; n < new_d.num_records(); ++n) {
        const double exact =
            fn.AggregateSimilarity(old_d.record(o), new_d.record(n));
        const double got = cache.AggregateWithThreshold(o, n, min_sim);
        if (got == SimCache::kPruned) {
          EXPECT_LT(exact, min_sim)
              << "pruned a kept pair (" << o << "," << n << ") at "
              << min_sim;
        } else {
          EXPECT_EQ(got, exact)
              << "threshold path drifted for (" << o << "," << n << ") at "
              << min_sim;
        }
      }
    }
  }
}

TEST(SimCacheTest, ThresholdScoringIsExactAtZero) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  const SimCache cache(fn, old_d, new_d);
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      // min_sim <= 0 disables pruning.
      EXPECT_EQ(cache.AggregateWithThreshold(o, n, 0.0),
                fn.AggregateSimilarity(old_d.record(o), new_d.record(n)));
    }
  }
}

}  // namespace
}  // namespace tglink
