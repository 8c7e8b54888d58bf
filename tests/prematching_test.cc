#include "tglink/linkage/prematching.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "tglink/graph/union_find.h"
#include "tglink/linkage/config.h"
#include "tglink/obs/metrics.h"
#include "tglink/synth/generator.h"
#include "tglink/util/random.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using testing_example::MakeCensus1871;
using testing_example::MakeCensus1881;
using testing_example::MakeRecord;

/// Fig. 3's configuration: exact first name + surname, threshold 1.
SimilarityFunction Fig3SimFunc() {
  return SimilarityFunction(
      {
          {Field::kFirstName, Measure::kQGramDice, 0.5},
          {Field::kSurname, Measure::kQGramDice, 0.5},
      },
      1.0);
}

class PreMatchingFig3Test : public ::testing::Test {
 protected:
  PreMatchingFig3Test()
      : old_d_(MakeCensus1871()),
        new_d_(MakeCensus1881()),
        sim_func_(Fig3SimFunc()),
        prematcher_(old_d_, new_d_, sim_func_,
                    BlockingConfig::MakeExhaustive(), 1.0),
        clustering_(prematcher_.Cluster(
            1.0, std::vector<bool>(old_d_.num_records(), true),
            std::vector<bool>(new_d_.num_records(), true))) {}

  CensusDataset old_d_;
  CensusDataset new_d_;
  SimilarityFunction sim_func_;
  PreMatcher prematcher_;
  Clustering clustering_;
};

TEST_F(PreMatchingFig3Test, ReproducesPaperClusters) {
  // Fig. 3: {1871_1, 1881_1, 1881_9} share label A, etc.
  // record ids: 1871: 0..7 ; 1881: 0..10 (see paper_example.h).
  const auto label_old = [&](RecordId r) { return clustering_.old_labels[r]; };
  const auto label_new = [&](RecordId r) { return clustering_.new_labels[r]; };

  // A: john ashworth — 1871_1(0), 1881_1(0), 1881_9(8).
  EXPECT_EQ(label_old(0), label_new(0));
  EXPECT_EQ(label_old(0), label_new(8));
  // B: elizabeth ashworth — 1871_2(1), 1881_2(1), 1881_10(9).
  EXPECT_EQ(label_old(1), label_new(1));
  EXPECT_EQ(label_old(1), label_new(9));
  // C: william ashworth — 1871_4(3), 1881_3(2), 1881_11(10).
  EXPECT_EQ(label_old(3), label_new(2));
  EXPECT_EQ(label_old(3), label_new(10));
  // D/E/F: the smiths.
  EXPECT_EQ(label_old(5), label_new(3));  // john smith
  EXPECT_EQ(label_old(6), label_new(4));  // elizabeth smith
  EXPECT_EQ(label_old(7), label_new(5));  // steve smith
  // Alice Ashworth (2) and Alice Smith (6) carry DIFFERENT labels (I vs K).
  EXPECT_NE(label_old(2), label_new(6));
  // John Riley (4) and Mary Smith (7) are singletons.
  EXPECT_EQ(clustering_.LabelSize(label_old(4)), 1u);
  EXPECT_EQ(clustering_.LabelSize(label_new(7)), 1u);
  // Distinct clusters are distinct labels.
  EXPECT_NE(label_old(0), label_old(1));
  EXPECT_NE(label_old(0), label_old(5));
}

TEST_F(PreMatchingFig3Test, LabelSizesMatchPaper) {
  // |A| = |B| = |C| = 3 (used by the uniqueness example, Eq. 8).
  EXPECT_EQ(clustering_.LabelSize(clustering_.old_labels[0]), 3u);
  EXPECT_EQ(clustering_.LabelSize(clustering_.old_labels[1]), 3u);
  EXPECT_EQ(clustering_.LabelSize(clustering_.old_labels[3]), 3u);
  EXPECT_EQ(clustering_.LabelSize(clustering_.old_labels[5]), 2u);  // D
}

TEST_F(PreMatchingFig3Test, MemberListsConsistentWithLabels) {
  for (RecordId r = 0; r < old_d_.num_records(); ++r) {
    const uint32_t label = clustering_.old_labels[r];
    ASSERT_NE(label, Clustering::kNoLabel);
    const auto& members = clustering_.label_old_members[label];
    EXPECT_NE(std::find(members.begin(), members.end(), r), members.end());
  }
}

TEST_F(PreMatchingFig3Test, PairSimilarityCachedAndOnDemandAgree) {
  // Cached pair (john ashworth 0-0) and a non-cached pair must both return
  // the underlying similarity function's value.
  EXPECT_DOUBLE_EQ(prematcher_.PairSimilarity(0, 0), 1.0);
  const double direct =
      sim_func_.AggregateSimilarity(old_d_.record(2), new_d_.record(6));
  EXPECT_DOUBLE_EQ(prematcher_.PairSimilarity(2, 6), direct);
}

TEST_F(PreMatchingFig3Test, InactiveRecordsExcluded) {
  std::vector<bool> active_old(old_d_.num_records(), true);
  std::vector<bool> active_new(new_d_.num_records(), true);
  active_old[0] = false;  // John Ashworth 1871 already matched
  const Clustering c = prematcher_.Cluster(1.0, active_old, active_new);
  EXPECT_EQ(c.old_labels[0], Clustering::kNoLabel);
  // The 1881 Johns still cluster with each other? No — clustering links only
  // across accepted pairs, and pairs require one old + one new record; the
  // two 1881 Johns are connected only through 1871_1. Without it they are
  // separate.
  EXPECT_NE(c.new_labels[0], c.new_labels[8]);
}

TEST(PreMatchingTest, LowerThresholdNeverShrinksClusters) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction f(
      {
          {Field::kFirstName, Measure::kQGramDice, 0.5},
          {Field::kSurname, Measure::kQGramDice, 0.5},
      },
      0.5);
  PreMatcher pm(old_d, new_d, f, BlockingConfig::MakeExhaustive(), 0.5);
  const std::vector<bool> all_old(old_d.num_records(), true);
  const std::vector<bool> all_new(new_d.num_records(), true);
  const Clustering strict = pm.Cluster(0.9, all_old, all_new);
  const Clustering loose = pm.Cluster(0.5, all_old, all_new);
  // Records sharing a label at 0.9 must also share one at 0.5.
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      if (strict.old_labels[o] == strict.new_labels[n]) {
        EXPECT_EQ(loose.old_labels[o], loose.new_labels[n]);
      }
    }
  }
  EXPECT_LE(loose.num_labels, strict.num_labels);
}

TEST(PreMatchingTest, ScoredPairsRespectMinThreshold) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction f(
      {
          {Field::kFirstName, Measure::kQGramDice, 0.5},
          {Field::kSurname, Measure::kQGramDice, 0.5},
      },
      0.5);
  PreMatcher pm(old_d, new_d, f, BlockingConfig::MakeExhaustive(), 0.6);
  size_t visited = 0;
  pm.ForEachKeptPair([&visited](const ScoredPair& p) {
    EXPECT_GE(p.sim, 0.6);
    ++visited;
  });
  EXPECT_EQ(visited, pm.num_kept_pairs());
  EXPECT_GT(visited, 0u);
}

SyntheticPair SmallSyntheticPair() {
  GeneratorConfig gen;
  gen.seed = 1807;
  gen.scale = 0.05;
  gen.num_censuses = 2;
  return GenerateCensusPair(gen, 0);
}

SimilarityFunction DefaultSimFunc(const SyntheticPair& pair) {
  SimilarityFunction f = configs::DefaultConfig().sim_func;
  f.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());
  return f;
}

// The kept pairs are exactly the blocking candidates whose directly
// computed similarity reaches min_threshold, enumerated in (old, new) order
// with that similarity, and the CSR store answers each of them without a
// miss. The oracle is an ordered map built from the candidates.
TEST(PreMatchingTest, PairSimilarityMatchesMapOracleForEveryKeptPair) {
  const SyntheticPair pair = SmallSyntheticPair();
  const LinkageConfig config = configs::DefaultConfig();
  const SimilarityFunction f = DefaultSimFunc(pair);
  const PreMatcher pm(pair.old_dataset, pair.new_dataset, f, config.blocking,
                      config.delta_low);
  std::map<std::pair<RecordId, RecordId>, double> oracle;
  for (const CandidatePair& cand : GenerateCandidatePairs(
           pair.old_dataset, pair.new_dataset, config.blocking)) {
    const double sim =
        f.AggregateSimilarity(pair.old_dataset.record(cand.old_id),
                              pair.new_dataset.record(cand.new_id));
    if (sim < config.delta_low) continue;
    EXPECT_TRUE(
        oracle.emplace(std::make_pair(cand.old_id, cand.new_id), sim).second)
        << "duplicate candidate (" << cand.old_id << ", " << cand.new_id
        << ")";
  }
  ASSERT_GT(oracle.size(), 100u);
  ASSERT_EQ(pm.num_kept_pairs(), oracle.size());
  auto next = oracle.begin();
  pm.ForEachKeptPair([&](const ScoredPair& p) {
    ASSERT_NE(next, oracle.end());
    EXPECT_EQ(p.old_id, next->first.first);
    EXPECT_EQ(p.new_id, next->first.second);
    EXPECT_EQ(p.sim, next->second);
    ++next;
  });
  obs::Counter& misses =
      obs::GlobalMetrics().GetCounter("simcache.prematch_miss");
  const uint64_t misses_before = misses.Value();
  for (const auto& [key, sim] : oracle) {
    EXPECT_EQ(pm.PairSimilarity(key.first, key.second), sim);
  }
  EXPECT_EQ(misses.Value(), misses_before) << "a kept pair missed the store";
}

// ---------------------------------------------------------------------------
// Cluster oracle: the former implementation, which sorted the kept pairs by
// descending similarity (ties by ascending (old, new)) and unioned the
// prefix admissible at δ. The library scans its CSR rows in (old, new)
// order instead; both must produce the same Clustering and pair count.

struct ClusterOracle {
  std::vector<ScoredPair> descending;
  size_t n_old;
  size_t n_new;

  explicit ClusterOracle(const PreMatcher& pm, size_t old_records,
                         size_t new_records)
      : n_old(old_records), n_new(new_records) {
    pm.ForEachKeptPair(
        [this](const ScoredPair& p) { descending.push_back(p); });
    std::sort(descending.begin(), descending.end(),
              [](const ScoredPair& a, const ScoredPair& b) {
                if (a.sim != b.sim) return a.sim > b.sim;
                if (a.old_id != b.old_id) return a.old_id < b.old_id;
                return a.new_id < b.new_id;
              });
  }

  size_t PrefixAtDelta(double delta) const {
    return static_cast<size_t>(
        std::partition_point(
            descending.begin(), descending.end(),
            [delta](const ScoredPair& p) { return p.sim + 1e-12 >= delta; }) -
        descending.begin());
  }

  size_t CountPairsAtDelta(double delta, const std::vector<bool>& active_old,
                           const std::vector<bool>& active_new) const {
    const size_t prefix = PrefixAtDelta(delta);
    size_t count = 0;
    for (size_t i = 0; i < prefix; ++i) {
      const ScoredPair& p = descending[i];
      if (active_old[p.old_id] && active_new[p.new_id]) ++count;
    }
    return count;
  }

  Clustering Cluster(double delta, const std::vector<bool>& active_old,
                     const std::vector<bool>& active_new) const {
    const size_t prefix = PrefixAtDelta(delta);
    UnionFind uf(n_old + n_new);
    for (size_t i = 0; i < prefix; ++i) {
      const ScoredPair& p = descending[i];
      if (!active_old[p.old_id] || !active_new[p.new_id]) continue;
      uf.Union(p.old_id, n_old + p.new_id);
    }
    const std::vector<uint32_t> labels = uf.ComponentLabels();
    Clustering c;
    c.old_labels.assign(n_old, Clustering::kNoLabel);
    c.new_labels.assign(n_new, Clustering::kNoLabel);
    c.num_labels = uf.num_components();
    c.label_old_members.resize(c.num_labels);
    c.label_new_members.resize(c.num_labels);
    for (size_t r = 0; r < n_old; ++r) {
      if (!active_old[r]) continue;
      c.old_labels[r] = labels[r];
      c.label_old_members[labels[r]].push_back(static_cast<RecordId>(r));
    }
    for (size_t r = 0; r < n_new; ++r) {
      if (!active_new[r]) continue;
      c.new_labels[r] = labels[n_old + r];
      c.label_new_members[labels[n_old + r]].push_back(
          static_cast<RecordId>(r));
    }
    return c;
  }
};

void ExpectSameClustering(const PreMatcher& pm, const ClusterOracle& oracle,
                          double delta, const std::vector<bool>& active_old,
                          const std::vector<bool>& active_new,
                          const std::string& where) {
  const Clustering want = oracle.Cluster(delta, active_old, active_new);
  const Clustering got = pm.Cluster(delta, active_old, active_new);
  EXPECT_EQ(got.num_labels, want.num_labels) << where;
  EXPECT_EQ(got.old_labels, want.old_labels) << where;
  EXPECT_EQ(got.new_labels, want.new_labels) << where;
  EXPECT_EQ(got.label_old_members, want.label_old_members) << where;
  EXPECT_EQ(got.label_new_members, want.label_new_members) << where;
  EXPECT_EQ(pm.CountPairsAtDelta(delta, active_old, active_new),
            oracle.CountPairsAtDelta(delta, active_old, active_new))
      << where;
}

/// Every δ of the default schedule, each with all records active and with
/// three random inactive masks (a quarter of each side inactive).
void CompareClusteringOverSchedule(const PreMatcher& pm,
                                   const CensusDataset& old_d,
                                   const CensusDataset& new_d,
                                   const std::string& name) {
  const ClusterOracle oracle(pm, old_d.num_records(), new_d.num_records());
  const LinkageConfig config = configs::DefaultConfig();
  Rng rng(20170321);
  size_t rounds = 0;
  for (double delta = config.delta_high; delta + 1e-9 >= config.delta_low;
       delta -= config.delta_step, ++rounds) {
    for (int mask = 0; mask < 4; ++mask) {
      std::vector<bool> active_old(old_d.num_records(), true);
      std::vector<bool> active_new(new_d.num_records(), true);
      if (mask > 0) {
        for (size_t r = 0; r < active_old.size(); ++r) {
          active_old[r] = !rng.Bernoulli(0.25);
        }
        for (size_t r = 0; r < active_new.size(); ++r) {
          active_new[r] = !rng.Bernoulli(0.25);
        }
      }
      ExpectSameClustering(pm, oracle, delta, active_old, active_new,
                           name + " at delta " + std::to_string(delta) +
                               ", mask " + std::to_string(mask));
    }
  }
  EXPECT_EQ(rounds, 5u) << name;
}

TEST(PreMatchingClusterOracleTest, PaperFixtureMatchesOracleOverSchedule) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction f(
      {
          {Field::kFirstName, Measure::kQGramDice, 0.5},
          {Field::kSurname, Measure::kQGramDice, 0.5},
      },
      0.5);
  const PreMatcher pm(old_d, new_d, f, BlockingConfig::MakeExhaustive(),
                      configs::DefaultConfig().delta_low);
  ASSERT_GT(pm.num_kept_pairs(), 0u);
  CompareClusteringOverSchedule(pm, old_d, new_d, "paper");
}

TEST(PreMatchingClusterOracleTest, SyntheticPairMatchesOracleOverSchedule) {
  const SyntheticPair pair = SmallSyntheticPair();
  const LinkageConfig config = configs::DefaultConfig();
  const PreMatcher pm(pair.old_dataset, pair.new_dataset,
                      DefaultSimFunc(pair), config.blocking, config.delta_low);
  ASSERT_GT(pm.num_kept_pairs(), 100u);
  CompareClusteringOverSchedule(pm, pair.old_dataset, pair.new_dataset,
                                "synthetic");
}

// The admission test is sim + 1e-12 >= δ. A kept pair whose sim equals δ
// exactly is admitted, so is one 1e-13 below δ, and one 1e-11 below is not.
TEST(PreMatchingClusterOracleTest, AdmissionToleranceIsUnchanged) {
  const SyntheticPair pair = SmallSyntheticPair();
  const LinkageConfig config = configs::DefaultConfig();
  const PreMatcher pm(pair.old_dataset, pair.new_dataset,
                      DefaultSimFunc(pair), config.blocking, config.delta_low);
  const ClusterOracle oracle(pm, pair.old_dataset.num_records(),
                             pair.new_dataset.num_records());
  // A kept pair whose similarity no other kept pair shares.
  const ScoredPair* probe = nullptr;
  for (size_t i = 0; i < oracle.descending.size() && probe == nullptr; ++i) {
    const double sim = oracle.descending[i].sim;
    const bool unique =
        (i == 0 || oracle.descending[i - 1].sim != sim) &&
        (i + 1 == oracle.descending.size() ||
         oracle.descending[i + 1].sim != sim);
    if (unique && sim > config.delta_low && sim < 1.0) {
      probe = &oracle.descending[i];
    }
  }
  ASSERT_NE(probe, nullptr);
  const double sim = probe->sim;
  const std::vector<bool> all_old(pair.old_dataset.num_records(), true);
  const std::vector<bool> all_new(pair.new_dataset.num_records(), true);
  const size_t at = pm.CountPairsAtDelta(sim, all_old, all_new);
  EXPECT_EQ(pm.CountPairsAtDelta(sim + 1e-13, all_old, all_new), at);
  EXPECT_EQ(pm.CountPairsAtDelta(sim + 1e-11, all_old, all_new), at - 1);
  for (const double delta : {sim, sim + 1e-13, sim + 1e-11}) {
    ExpectSameClustering(pm, oracle, delta, all_old, all_new,
                         "tolerance probe at sim + " +
                             std::to_string(delta - sim));
  }
  // Admitted 1e-13 below the threshold, the probe pair joins its records
  // under one label.
  const Clustering admitted = pm.Cluster(sim + 1e-13, all_old, all_new);
  EXPECT_EQ(admitted.old_labels[probe->old_id],
            admitted.new_labels[probe->new_id]);
}

// Lookups that must miss the store and fall through to the memo layer,
// returning exactly the directly computed similarity.
class PreMatchingMissTest : public ::testing::Test {
 protected:
  // Old records 0 and 3 (the first and the last) match nothing at
  // threshold 1, so their rows are empty; rows 1 and 2 hold one pair each.
  PreMatchingMissTest()
      : old_d_(MakeOld()),
        new_d_(MakeNew()),
        sim_func_(Fig3SimFunc()),
        prematcher_(old_d_, new_d_, sim_func_,
                    BlockingConfig::MakeExhaustive(), 1.0) {}

  static CensusDataset MakeOld() {
    CensusDataset d(1871);
    d.AddHousehold(
        "o1", {MakeRecord("o_0", "zebedee", "nobody", Sex::kMale, 40,
                          Role::kHead, "1 lane", ""),
               MakeRecord("o_1", "john", "ashworth", Sex::kMale, 39,
                          Role::kHead, "12 mill street", "")});
    d.AddHousehold(
        "o2", {MakeRecord("o_2", "elizabeth", "ashworth", Sex::kFemale, 37,
                          Role::kHead, "12 mill street", ""),
               MakeRecord("o_3", "quentin", "outlier", Sex::kMale, 50,
                          Role::kHead, "9 hill", "")});
    return d;
  }
  static CensusDataset MakeNew() {
    CensusDataset d(1881);
    d.AddHousehold(
        "n1", {MakeRecord("n_0", "john", "ashworth", Sex::kMale, 49,
                          Role::kHead, "12 mill street", ""),
               MakeRecord("n_1", "elizabeth", "ashworth", Sex::kFemale, 47,
                          Role::kWife, "12 mill street", ""),
               MakeRecord("n_2", "mary", "smith", Sex::kFemale, 2,
                          Role::kDaughter, "12 mill street", "")});
    return d;
  }

  double Direct(RecordId o, RecordId n) const {
    return sim_func_.AggregateSimilarity(old_d_.record(o), new_d_.record(n));
  }

  CensusDataset old_d_;
  CensusDataset new_d_;
  SimilarityFunction sim_func_;
  PreMatcher prematcher_;
};

TEST_F(PreMatchingMissTest, StoreHoldsExactlyTheMatchingPairs) {
  ASSERT_EQ(prematcher_.num_kept_pairs(), 2u);
  EXPECT_EQ(prematcher_.PairSimilarity(1, 0), 1.0);
  EXPECT_EQ(prematcher_.PairSimilarity(2, 1), 1.0);
}

TEST_F(PreMatchingMissTest, MissesFallThroughToDirectSimilarity) {
  obs::Counter& misses =
      obs::GlobalMetrics().GetCounter("simcache.prematch_miss");
  const uint64_t before = misses.Value();
  const std::pair<RecordId, RecordId> probes[] = {
      {0, 0}, {0, 2},  // empty first row
      {3, 0}, {3, 2},  // empty last row
      {1, 2},          // new id past the end of row 1 = {0}
      {2, 0},          // new id before the start of row 2 = {1}
      {1, 1},          // scored but below the threshold
  };
  for (const auto& [o, n] : probes) {
    EXPECT_EQ(prematcher_.PairSimilarity(o, n), Direct(o, n))
        << "(" << o << ", " << n << ")";
  }
  EXPECT_LT(prematcher_.PairSimilarity(1, 1), 1.0);
  EXPECT_EQ(misses.Value() - before, std::size(probes) + 1);
}

}  // namespace
}  // namespace tglink
