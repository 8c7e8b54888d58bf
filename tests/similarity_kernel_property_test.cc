// Differential verification of the library's similarity kernels against
// the textbook reference oracle in tests/reference_measures.h (see
// DESIGN.md §10):
//
//   * bit-identity: ComputeMeasure(m, a, b) returns EXACTLY
//     reference::MeasureValue(m, a, b) — same bits, not approximately —
//     over 50 seeded random-byte corpora (non-ASCII bytes, embedded NULs,
//     sentinel '#'/'$' characters, empties, and the 63/64/65-char Myers
//     word-size boundary);
//   * pruning soundness: with any min_sim, ComputeMeasure either returns
//     the exact reference value or the kBelowMinSim sentinel, and the
//     sentinel is only ever returned when the true similarity is < min_sim;
//   * aggregate identity: SimBatch reproduces the reference aggregate
//     (SimilarityFunction::AggregateWith over the oracle measures)
//     bit-for-bit on full synthetic census pairs from every corruption
//     preset, and AggregateWithThreshold keeps exactly the exact keep-set.
//
// Runs serially by default; TGLINK_TEST_THREADS=0 (a second ctest entry)
// reruns everything on one worker per hardware thread — outputs must be
// bit-identical, so every property holds under both.

#include "tglink/similarity/batch_kernels.h"

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/blocking/blocking.h"
#include "tglink/linkage/config.h"
#include "tglink/similarity/sim_batch.h"
#include "tglink/util/parallel.h"
#include "tests/proptest.h"
#include "tests/reference_measures.h"

namespace tglink {
namespace {

class SimilarityKernelPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* threads = std::getenv("TGLINK_TEST_THREADS");
    SetParallelThreadCount(threads != nullptr ? std::atoi(threads) : 1);
  }
  void TearDown() override { SetParallelThreadCount(1); }
};

const std::vector<Measure>& KernelMeasures() {
  static const std::vector<Measure> measures = {
      Measure::kExact,       Measure::kQGramDice,  Measure::kTrigramDice,
      Measure::kLevenshtein, Measure::kDamerau,    Measure::kJaro,
      Measure::kJaroWinkler, Measure::kSoundexEqual};
  return measures;
}

/// One random corpus: empties, short names, arbitrary-byte strings (any
/// value 0..255, so NULs, sentinels, and non-ASCII are all exercised), and
/// strings pinned to the 63/64/65-char Myers boundary.
std::vector<std::string> RandomCorpus(proptest::Case& c) {
  std::vector<std::string> corpus = {"", "a", "smith", "ashworth"};
  for (const size_t boundary : {size_t{63}, size_t{64}, size_t{65}}) {
    std::string s(boundary, 'x');
    // A couple of random edits so boundary pairs are near-but-not-equal.
    s[c.rng().NextBounded(boundary)] =
        static_cast<char>(c.rng().NextBounded(256));
    corpus.push_back(std::move(s));
  }
  for (int i = 0; i < 9; ++i) {
    const size_t len = 1 + c.rng().NextBounded(80);
    std::string s(len, '\0');
    for (size_t k = 0; k < len; ++k) {
      s[k] = static_cast<char>(c.rng().NextBounded(256));
    }
    corpus.push_back(std::move(s));
  }
  // Mutated copies make near-duplicates likely, which is where kernel bugs
  // (off-by-one windows, transposition terms) actually hide.
  const size_t base = corpus.size();
  for (int i = 0; i < 4; ++i) {
    std::string s = corpus[c.rng().NextBounded(base)];
    if (s.empty()) continue;
    s[c.rng().NextBounded(s.size())] =
        static_cast<char>(c.rng().NextBounded(256));
    corpus.push_back(std::move(s));
  }
  return corpus;
}

// 50 corpora x all kernel-backed measures x all pairs: exact equality with
// the reference oracle when pruning is off.
TEST_F(SimilarityKernelPropertyTest, BitIdenticalToReferenceWithoutPruning) {
  proptest::Runner runner("simkernel.bit_identity", /*iterations=*/50);
  runner.Run([](proptest::Case& c) {
    const std::vector<std::string> corpus = RandomCorpus(c);
    for (const Measure measure : KernelMeasures()) {
      for (const std::string& a : corpus) {
        for (const std::string& b : corpus) {
          const double expected = reference::MeasureValue(measure, a, b);
          const double got = ComputeMeasure(measure, a, b);
          c.ExpectTrue(got == expected,
                       std::string(MeasureName(measure)) + "(" +
                           std::to_string(a.size()) + "B, " +
                           std::to_string(b.size()) + "B) kernel " +
                           std::to_string(got) + " != reference " +
                           std::to_string(expected));
        }
      }
    }
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
  EXPECT_GE(runner.iterations_ran(), 50);
}

// Threshold-aware kernels: exact value or sentinel, sentinel only below
// min_sim — at cutoffs spanning lenient to impossible (1.0 prunes hardest;
// a cutoff > 1 must prune everything non-identical and still never break
// the contract).
TEST_F(SimilarityKernelPropertyTest, PruningIsSoundAtEveryCutoff) {
  proptest::Runner runner("simkernel.pruning_soundness", /*iterations=*/50);
  runner.Run([](proptest::Case& c) {
    const std::vector<std::string> corpus = RandomCorpus(c);
    const double cutoffs[] = {0.3, 0.5, 0.7, 0.9, 0.99, 1.0};
    for (const Measure measure : KernelMeasures()) {
      for (const std::string& a : corpus) {
        for (const std::string& b : corpus) {
          const double min_sim =
              cutoffs[c.rng().NextBounded(std::size(cutoffs))];
          const double expected = reference::MeasureValue(measure, a, b);
          const double got = ComputeMeasure(measure, a, b, min_sim);
          if (got == simkernel::kBelowMinSim) {
            c.ExpectTrue(expected < min_sim,
                         std::string(MeasureName(measure)) +
                             " pruned a pair with sim " +
                             std::to_string(expected) + " >= min_sim " +
                             std::to_string(min_sim));
          } else {
            c.ExpectTrue(got == expected,
                         std::string(MeasureName(measure)) +
                             " under threshold returned " +
                             std::to_string(got) + " != exact " +
                             std::to_string(expected));
          }
        }
      }
    }
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
}

// Full-pipeline identity on synthetic censuses: every corruption preset x
// 10 seeds (preset coverage is deterministic, not sampled). SimBatch must
// reproduce the reference aggregate bit-for-bit, and the threshold path
// must keep exactly the exact keep-set.
TEST_F(SimilarityKernelPropertyTest, AggregateIdentityAcrossPresets) {
  for (const GeneratorConfig& preset : proptest::AllPresets()) {
    proptest::Runner runner("simkernel.aggregate_identity",
                            /*iterations=*/10);
    runner.Run([&preset](proptest::Case& c) {
      GeneratorConfig gen = preset;
      gen.seed = c.rng().Next();
      gen.scale = c.scale();
      gen.num_censuses = 2;
      const SyntheticPair pair = GenerateCensusPair(gen, 0);
      SimilarityFunction fn = configs::DefaultConfig().sim_func;
      fn.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());

      const std::vector<CandidatePair> candidates = GenerateCandidatePairs(
          pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());

      const SimBatch batch(fn, pair.old_dataset, pair.new_dataset);
      const double min_sim = 0.5 + 0.4 * (c.rng().NextBounded(5) / 5.0);

      const std::vector<double> reference_sims = ParallelMap<double>(
          candidates.size(), "proptest.reference_chunk", [&](size_t i) {
            return reference::Aggregate(
                fn, pair.old_dataset.record(candidates[i].old_id),
                pair.new_dataset.record(candidates[i].new_id));
          });
      const std::vector<double> batch_sims = ParallelMap<double>(
          candidates.size(), "proptest.batch_chunk", [&](size_t i) {
            return batch.AggregateWithThreshold(candidates[i].old_id,
                                                candidates[i].new_id, 0.0);
          });
      const std::vector<double> pruned_sims = ParallelMap<double>(
          candidates.size(), "proptest.pruned_chunk", [&](size_t i) {
            return batch.AggregateWithThreshold(candidates[i].old_id,
                                                candidates[i].new_id,
                                                min_sim);
          });
      for (size_t i = 0; i < candidates.size(); ++i) {
        c.ExpectTrue(batch_sims[i] == reference_sims[i],
                     "pair " + std::to_string(i) + ": batch " +
                         std::to_string(batch_sims[i]) + " != reference " +
                         std::to_string(reference_sims[i]));
        if (pruned_sims[i] == SimBatch::kPruned) {
          c.ExpectTrue(reference_sims[i] < min_sim,
                       "pair " + std::to_string(i) +
                           " pruned at min_sim " + std::to_string(min_sim) +
                           " but reference sim is " +
                           std::to_string(reference_sims[i]));
        } else {
          c.ExpectTrue(pruned_sims[i] == reference_sims[i],
                       "pair " + std::to_string(i) +
                           ": threshold path " +
                           std::to_string(pruned_sims[i]) +
                           " != reference " +
                           std::to_string(reference_sims[i]));
        }
      }
    });
    EXPECT_TRUE(runner.AllPassed()) << runner.Report();
    EXPECT_GE(runner.iterations_ran(), 10);
  }
}

/// A composite function touching every SimBatch plan: both Dice gram sizes,
/// the full edit/Jaro family, Soundex, exact sex and the temporal age
/// component. Several specs share a field so the per-field table reuse is
/// exercised too.
SimilarityFunction AllPlanFunction() {
  return SimilarityFunction(
      {
          {Field::kFirstName, Measure::kJaroWinkler, 0.20},
          {Field::kFirstName, Measure::kSoundexEqual, 0.05},
          {Field::kFirstName, Measure::kQGramDice, 0.05},
          {Field::kSurname, Measure::kTrigramDice, 0.15},
          {Field::kSurname, Measure::kJaro, 0.05},
          {Field::kSex, Measure::kExact, 0.10},
          {Field::kAddress, Measure::kLevenshtein, 0.15},
          {Field::kOccupation, Measure::kDamerau, 0.15},
          {Field::kAge, Measure::kExact, 0.10},
      },
      /*threshold=*/0.7);
}

// The Omega2 pipeline only exercises the Dice/exact plans; this property
// pins reference bit-identity and threshold soundness for EVERY plan the
// batch layer implements, under all three missing policies (the
// policy changes the Eq. 3 denominator and the pruning bound arithmetic).
TEST_F(SimilarityKernelPropertyTest, AllPlansAllPoliciesAggregateIdentity) {
  proptest::Runner runner("simkernel.all_plans_identity", /*iterations=*/10);
  runner.Run([](proptest::Case& c) {
    const GeneratorConfig gen = proptest::RandomGeneratorConfig(&c);
    const SyntheticPair pair = GenerateCensusPair(gen, 0);
    const std::vector<CandidatePair> candidates = GenerateCandidatePairs(
        pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
    for (const MissingPolicy policy :
         {MissingPolicy::kRedistribute, MissingPolicy::kZero,
          MissingPolicy::kNeutral}) {
      SimilarityFunction fn = AllPlanFunction();
      fn.set_missing_policy(policy);
      fn.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());

      const SimBatch batch(fn, pair.old_dataset, pair.new_dataset);
      // High cutoffs force the running-cutoff path to hand every kernel a
      // nonzero kernel_min, so the in-kernel bound rejects fire too.
      const double min_sim = 0.5 + 0.1 * c.rng().NextBounded(5);
      for (const CandidatePair& cand : candidates) {
        const double expected =
            reference::Aggregate(fn, pair.old_dataset.record(cand.old_id),
                                 pair.new_dataset.record(cand.new_id));
        const double got =
            batch.AggregateWithThreshold(cand.old_id, cand.new_id, 0.0);
        c.ExpectTrue(got == expected,
                     "policy " + std::to_string(static_cast<int>(policy)) +
                         ": batch " + std::to_string(got) + " != reference " +
                         std::to_string(expected));
        const double pruned =
            batch.AggregateWithThreshold(cand.old_id, cand.new_id, min_sim);
        if (pruned == SimBatch::kPruned) {
          c.ExpectTrue(expected < min_sim,
                       "pruned at min_sim " + std::to_string(min_sim) +
                           " but exact sim is " + std::to_string(expected));
        } else {
          c.ExpectTrue(pruned == expected,
                       "threshold path " + std::to_string(pruned) +
                           " != exact " + std::to_string(expected));
        }
      }
    }
    // The interning invariant the arenas rely on: distinct values per field
    // can never exceed the number of records contributing them.
    const SimBatch batch(AllPlanFunction(), pair.old_dataset,
                         pair.new_dataset);
    const size_t total_records =
        pair.old_dataset.num_records() + pair.new_dataset.num_records();
    c.ExpectTrue(batch.num_interned_values() <= 5 * total_records,
                 "interned " + std::to_string(batch.num_interned_values()) +
                     " values from " + std::to_string(total_records) +
                     " records across 5 string fields");
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
  EXPECT_GE(runner.iterations_ran(), 10);
}

// Deterministic Myers word-size boundary pins: 64-char patterns take the
// bit-parallel path, 65-char pairs the banded fallback; both must agree
// with the reference DP exactly, including at distance-0 and heavy-edit
// ends.
TEST_F(SimilarityKernelPropertyTest, MyersBoundaryMatchesReference) {
  const std::string a63(63, 'a');
  const std::string a64(64, 'a');
  const std::string a65(65, 'a');
  std::string b64 = a64;
  b64[10] = 'z';
  b64[40] = 'q';
  std::string b65 = a65;
  b65[0] = 'z';
  b65[64] = 'q';
  const std::string disjoint(70, 'y');
  const std::vector<std::string> corpus = {a63, a64,      a65, b64,
                                           b65, disjoint, ""};
  for (const Measure measure : {Measure::kLevenshtein, Measure::kDamerau}) {
    for (const std::string& x : corpus) {
      for (const std::string& y : corpus) {
        const double expected = reference::MeasureValue(measure, x, y);
        EXPECT_EQ(ComputeMeasure(measure, x, y), expected)
            << MeasureName(measure) << " lengths " << x.size() << "/"
            << y.size();
        // And under a cutoff: exact or provably below.
        const double got = ComputeMeasure(measure, x, y, 0.9);
        if (got == simkernel::kBelowMinSim) {
          EXPECT_LT(expected, 0.9);
        } else {
          EXPECT_EQ(got, expected);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tglink
