// SimBatch correctness: the arena path must be bit-identical to the direct
// SimilarityFunction path (they share the kernels and the AggregateWith
// arithmetic), missing-value handling must mirror ComponentSimilarity
// exactly, threshold-aware scoring must never prune a pair at or above the
// cutoff, and every scoring call must count once towards
// "similarity.agg_calls".

#include "tglink/similarity/sim_batch.h"

#include <gtest/gtest.h>

#include "tglink/linkage/config.h"
#include "tglink/obs/metrics.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

SimilarityFunction PaperSimFunc() {
  SimilarityFunction fn = configs::DefaultConfig().sim_func;
  fn.set_year_gap(10);
  return fn;
}

/// The kernel plans the paper configurations do not use (Jaro-Winkler,
/// Soundex, trigram Dice, Damerau), next to bigram Dice and age.
SimilarityFunction MixedKernelSimFunc() {
  SimilarityFunction fn({{Field::kFirstName, Measure::kJaroWinkler, 2.0},
                         {Field::kSurname, Measure::kSoundexEqual, 2.0},
                         {Field::kSurname, Measure::kTrigramDice, 1.0},
                         {Field::kAddress, Measure::kQGramDice, 1.0},
                         {Field::kOccupation, Measure::kDamerau, 1.0},
                         {Field::kAge, Measure::kExact, 1.0}},
                        /*threshold=*/0.7);
  fn.set_year_gap(10);
  return fn;
}

TEST(SimBatchTest, BitIdenticalToDirectAggregationOverFullCrossProduct) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  for (const SimilarityFunction& fn :
       {PaperSimFunc(), MixedKernelSimFunc()}) {
    const SimBatch batch(fn, old_d, new_d);
    for (RecordId o = 0; o < old_d.num_records(); ++o) {
      for (RecordId n = 0; n < new_d.num_records(); ++n) {
        // EXPECT_EQ, not NEAR: the batch must reproduce the exact bits;
        // min_sim 0 disables pruning.
        EXPECT_EQ(batch.AggregateWithThreshold(o, n, 0.0),
                  fn.AggregateSimilarity(old_d.record(o), new_d.record(n)))
            << fn.ToString() << " pair (" << o << "," << n << ")";
      }
    }
  }
}

TEST(SimBatchTest, MissingValuesFollowTheDirectPath) {
  // Records with empty occupation / age exercise every missing-value branch;
  // the batch must agree with the direct path on all of them, under every
  // missing policy.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  for (const SimilarityFunction& base :
       {PaperSimFunc(), MixedKernelSimFunc()}) {
    for (MissingPolicy policy :
         {MissingPolicy::kRedistribute, MissingPolicy::kZero,
          MissingPolicy::kNeutral}) {
      SimilarityFunction fn = base;
      fn.set_missing_policy(policy);
      const SimBatch batch(fn, old_d, new_d);
      for (RecordId o = 0; o < old_d.num_records(); ++o) {
        for (RecordId n = 0; n < new_d.num_records(); ++n) {
          EXPECT_EQ(batch.AggregateWithThreshold(o, n, 0.0),
                    fn.AggregateSimilarity(old_d.record(o), new_d.record(n)))
              << fn.ToString() << " policy " << static_cast<int>(policy)
              << " pair (" << o << "," << n << ")";
        }
      }
    }
  }
}

TEST(SimBatchTest, WorksForOmega1Too) {
  // The ablation similarity function (different specs/weights) must score
  // through the same layer.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction fn = configs::Omega1();
  fn.set_year_gap(10);
  const SimBatch batch(fn, old_d, new_d);
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      EXPECT_EQ(batch.AggregateWithThreshold(o, n, 0.0),
                fn.AggregateSimilarity(old_d.record(o), new_d.record(n)))
          << "pair (" << o << "," << n << ")";
    }
  }
}

TEST(SimBatchTest, ThresholdScoringNeverPrunesAKeptPair) {
  // The pruning contract over the full fixture cross-product, at every
  // plausible cutoff: a pruned pair's exact aggregate is strictly below
  // min_sim, and a non-pruned pair's value is bit-identical to the exact
  // one — so keep-sets are identical to the unpruned path at every
  // threshold.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  const SimBatch batch(fn, old_d, new_d);
  for (const double min_sim : {0.1, 0.5, 0.7, 0.85, 0.95, 1.0}) {
    for (RecordId o = 0; o < old_d.num_records(); ++o) {
      for (RecordId n = 0; n < new_d.num_records(); ++n) {
        const double exact =
            fn.AggregateSimilarity(old_d.record(o), new_d.record(n));
        const double got = batch.AggregateWithThreshold(o, n, min_sim);
        if (got == SimBatch::kPruned) {
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

TEST(SimBatchTest, EveryScoringCallCountsOnce) {
  // One agg_calls per call on both paths: pruning on, and the
  // min_sim <= 0 forward to the exact aggregate.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  const SimBatch batch(fn, old_d, new_d);
  obs::Counter& calls =
      obs::GlobalMetrics().GetCounter("similarity.agg_calls");
  const uint64_t before = calls.Value();
  (void)batch.AggregateWithThreshold(0, 0, 0.7);
  EXPECT_EQ(calls.Value(), before + 1);
  (void)batch.AggregateWithThreshold(0, 0, 0.0);
  EXPECT_EQ(calls.Value(), before + 2);
}

}  // namespace
}  // namespace tglink
