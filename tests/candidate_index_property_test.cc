// Differential verification of the inverted candidate index — the one
// blocking implementation — against the textbook multi-pass hash blocking
// oracle in tests/reference_blocking.h (see DESIGN.md §9):
//
//   * equivalence: with pruning disabled, GeneratePairs() emits EXACTLY the
//     oracle's candidate-pair set, across >= 50 seeded synthetic datasets
//     covering every corruption preset AND every scenario-registry profile
//     (the adversarial regimes produce token distributions — duplicated
//     records, dissolved households, mass renames — the friendly presets
//     never do);
//   * sharded emission: an input spanning several emission shards and
//     ending in a partial one matches the oracle pair for pair, so every
//     shard lands at its exact offset;
//   * pruning: a token is pruned under exactly the condition the oracle
//     skips an oversized block (old + new > cap), so with the fallback off
//     the pruned index equals the capped oracle, and with it on emits a
//     superset — gold-pair recall is never worse, and the set stays below
//     the uncapped candidate count.
//
// Runs serially by default; TGLINK_TEST_THREADS=0 (a second ctest entry)
// reruns everything on one worker per hardware thread — outputs must be
// bit-identical, so every property holds under both.

#include "tglink/blocking/candidate_index.h"

#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/blocking/blocking.h"
#include "tglink/eval/gold.h"
#include "tglink/util/parallel.h"
#include "tests/proptest.h"
#include "tests/reference_blocking.h"

namespace tglink {
namespace {

class CandidateIndexPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* threads = std::getenv("TGLINK_TEST_THREADS");
    SetParallelThreadCount(threads != nullptr ? std::atoi(threads) : 1);
  }
  void TearDown() override { SetParallelThreadCount(1); }
};

std::string DescribePair(const SyntheticPair& pair) {
  return std::to_string(pair.old_dataset.num_records()) + "x" +
         std::to_string(pair.new_dataset.num_records()) + " records";
}

/// Every corruption regime the generator can produce: the five classic
/// presets plus every scenario-registry profile, labelled for reports.
std::vector<proptest::NamedScenarioConfig> AllRegimes() {
  std::vector<proptest::NamedScenarioConfig> regimes;
  const std::vector<GeneratorConfig> presets = proptest::AllPresets();
  for (size_t i = 0; i < presets.size(); ++i) {
    regimes.push_back({"preset" + std::to_string(i), presets[i]});
  }
  for (proptest::NamedScenarioConfig& sc : proptest::AllScenarioConfigs()) {
    regimes.push_back(std::move(sc));
  }
  return regimes;
}

/// Share of resolved gold record links contained in the candidate set.
double GoldRecall(const std::vector<CandidatePair>& candidates,
                  const ResolvedGold& gold) {
  if (gold.record_links.empty()) return 1.0;
  std::set<std::pair<RecordId, RecordId>> set;
  for (const CandidatePair& c : candidates) set.emplace(c.old_id, c.new_id);
  size_t found = 0;
  for (const auto& link : gold.record_links) {
    if (set.count(link) > 0) ++found;
  }
  return static_cast<double>(found) / gold.record_links.size();
}

// Pruning-disabled index output == oracle output, exactly, for 60
// datasets: every corruption regime — classic presets and scenario
// profiles — x 5 seeds (regime coverage is deterministic, not sampled).
TEST_F(CandidateIndexPropertyTest, ExactEquivalenceWithHashBlockingOracle) {
  for (const proptest::NamedScenarioConfig& regime : AllRegimes()) {
    proptest::Runner runner("candidate_index.equivalence." + regime.name,
                            /*iterations=*/5);
    runner.Run([&regime](proptest::Case& c) {
      GeneratorConfig gen = regime.config;
      gen.seed = c.rng().Next();
      gen.scale = c.scale();
      gen.num_censuses = 2;
      const SyntheticPair pair = GenerateCensusPair(gen, 0);

      const BlockingConfig config = BlockingConfig::MakeDefault();
      const std::vector<CandidatePair> expected = reference::HashBlockingPairs(
          pair.old_dataset, pair.new_dataset, config.passes);
      const std::vector<CandidatePair> actual =
          GenerateCandidatePairs(pair.old_dataset, pair.new_dataset, config);
      c.ExpectTrue(expected == actual,
                   "index pairs != hash pairs (" + DescribePair(pair) +
                       ": hash " + std::to_string(expected.size()) +
                       ", index " + std::to_string(actual.size()) + ")");
    });
    EXPECT_TRUE(runner.AllPassed()) << runner.Report();
    EXPECT_GE(runner.iterations_ran(), 5);
  }
}

// Emission is sharded over old records (2048 per shard in
// candidate_index.cc): every shard counts its pairs, the counts become
// offsets, and every shard fills its own range of one vector. An input of
// at least three shards that ends in a partial one must still match the
// oracle pair for pair — an offset off by one shifts or drops a pair —
// with and without pruning (fallback off, so the capped oracle is exact).
TEST_F(CandidateIndexPropertyTest, MultiShardEmissionMatchesOracle) {
  constexpr size_t kShardRecords = 2048;
  for (const uint64_t seed : {uint64_t{11}, uint64_t{12}}) {
    GeneratorConfig gen;
    gen.seed = seed;
    gen.scale = 0.3;
    gen.num_censuses = 2;
    const SyntheticPair pair = GenerateCensusPair(gen, 0);
    const size_t num_old = pair.old_dataset.num_records();
    ASSERT_GT(num_old, 2 * kShardRecords) << DescribePair(pair);
    ASSERT_NE(num_old % kShardRecords, 0u) << DescribePair(pair);
    for (const size_t cap : {size_t{0}, size_t{96}}) {
      BlockingConfig config = BlockingConfig::MakeDefault();
      config.max_posting_len = cap;
      config.fallback_window = 0;
      const std::vector<CandidatePair> expected = reference::HashBlockingPairs(
          pair.old_dataset, pair.new_dataset, config.passes, cap);
      const std::vector<CandidatePair> actual =
          GenerateCandidatePairs(pair.old_dataset, pair.new_dataset, config);
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(expected.size(), actual.size())
          << "seed " << seed << ", cap " << cap << ", " << DescribePair(pair);
      EXPECT_TRUE(expected == actual)
          << "seed " << seed << ", cap " << cap << ", " << DescribePair(pair);
    }
  }
}

// Frequency pruning + sorted-neighborhood fallback vs the hash-blocking
// oracle at the SAME oversize cap (the apples-to-apples baseline: both drop
// blocks with old + new > cap): with the fallback off the two are equal;
// with it on the index's candidate set is a superset — the fallback only
// adds pairs back — so gold recall is never worse, for every corruption
// regime (classic presets and scenario profiles alike).
TEST_F(CandidateIndexPropertyTest, PrunedRecallNoWorseThanBaseline) {
  constexpr size_t kCap = 96;
  for (const proptest::NamedScenarioConfig& regime : AllRegimes()) {
    proptest::Runner runner("candidate_index.pruned_recall." + regime.name,
                            /*iterations=*/5);
    runner.Run([&regime](proptest::Case& c) {
      GeneratorConfig gen = regime.config;
      gen.seed = c.rng().Next();
      gen.scale = c.scale();
      gen.num_censuses = 2;
      const SyntheticPair pair = GenerateCensusPair(gen, 0);
      auto resolved =
          ResolveGold(pair.gold, pair.old_dataset, pair.new_dataset);
      ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();

      BlockingConfig pruned = BlockingConfig::MakeDefault();
      pruned.max_posting_len = kCap;
      const std::vector<CandidatePair> baseline = reference::HashBlockingPairs(
          pair.old_dataset, pair.new_dataset, pruned.passes, kCap);

      pruned.fallback_window = 0;
      c.ExpectTrue(GenerateCandidatePairs(pair.old_dataset, pair.new_dataset,
                                          pruned) == baseline,
                   "pruned index without fallback != capped oracle (" +
                       DescribePair(pair) + ")");

      pruned.fallback_window = 12;
      const std::vector<CandidatePair> candidates = GenerateCandidatePairs(
          pair.old_dataset, pair.new_dataset, pruned);

      std::set<std::pair<RecordId, RecordId>> candidate_set;
      for (const CandidatePair& p : candidates) {
        candidate_set.emplace(p.old_id, p.new_id);
      }
      bool superset = true;
      for (const CandidatePair& p : baseline) {
        superset = superset && candidate_set.count({p.old_id, p.new_id}) > 0;
      }
      c.ExpectTrue(superset,
                   "pruned index lost a capped-oracle pair (" +
                       DescribePair(pair) + ")");

      const double base_recall = GoldRecall(baseline, resolved.value());
      const double pruned_recall = GoldRecall(candidates, resolved.value());
      c.ExpectTrue(pruned_recall >= base_recall,
                   "pruned recall " + std::to_string(pruned_recall) +
                       " < baseline " + std::to_string(base_recall) + " (" +
                       DescribePair(pair) + ")");

      // Pruning must still be a reduction relative to no cap at all.
      const std::vector<CandidatePair> uncapped = GenerateCandidatePairs(
          pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
      c.ExpectTrue(candidates.size() <= uncapped.size(),
                   "pruning + fallback grew the candidate set: " +
                       std::to_string(candidates.size()) + " > " +
                       std::to_string(uncapped.size()));
    });
    EXPECT_TRUE(runner.AllPassed()) << runner.Report();
  }
}

// The conjunctive >=2-shared-keys mode is a strict subset of the union mode
// and agrees with a set-based reference intersection.
TEST_F(CandidateIndexPropertyTest, ConjunctiveModeIsSubsetOfUnion) {
  proptest::Runner runner("candidate_index.conjunctive", /*iterations=*/15);
  runner.Run([](proptest::Case& c) {
    const SyntheticPair pair = proptest::RandomCensusPair(&c);
    const std::vector<CandidatePair> unioned = GenerateCandidatePairs(
        pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
    BlockingConfig conj = BlockingConfig::MakeDefault();
    conj.min_shared_passes = 2;
    const std::vector<CandidatePair> intersected =
        GenerateCandidatePairs(pair.old_dataset, pair.new_dataset, conj);
    std::set<std::pair<RecordId, RecordId>> union_set;
    for (const CandidatePair& p : unioned) {
      union_set.emplace(p.old_id, p.new_id);
    }
    bool subset = intersected.size() <= unioned.size();
    for (const CandidatePair& p : intersected) {
      subset = subset && union_set.count({p.old_id, p.new_id}) > 0;
    }
    c.ExpectTrue(subset, "conjunctive pairs not a subset of union pairs");
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
}

}  // namespace
}  // namespace tglink
