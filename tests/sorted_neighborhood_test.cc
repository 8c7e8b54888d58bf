#include "tglink/blocking/sorted_neighborhood.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/eval/gold.h"
#include "tglink/synth/generator.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

TEST(SortedNeighborhoodTest, AdjacentKeysBecomeCandidates) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const auto pairs = SortedNeighborhoodPairs(
      old_d, new_d, SortedNeighborhoodConfig::MakeDefault());
  std::set<std::pair<RecordId, RecordId>> set;
  for (const auto& p : pairs) set.emplace(p.old_id, p.new_id);
  // Identical sort keys sort adjacently: john ashworth 1871 (0) next to the
  // 1881 johns (0 and 8).
  EXPECT_TRUE(set.count({0, 0}));
  // Pairs are cross-snapshot only and within range.
  for (const auto& p : pairs) {
    EXPECT_LT(p.old_id, old_d.num_records());
    EXPECT_LT(p.new_id, new_d.num_records());
  }
}

TEST(SortedNeighborhoodTest, SortedAndUnique) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const auto pairs = SortedNeighborhoodPairs(
      old_d, new_d, SortedNeighborhoodConfig::MakeDefault());
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LT(std::make_pair(pairs[i - 1].old_id, pairs[i - 1].new_id),
              std::make_pair(pairs[i].old_id, pairs[i].new_id));
  }
}

TEST(SortedNeighborhoodTest, WindowBoundsCandidateCount) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SortedNeighborhoodConfig narrow = SortedNeighborhoodConfig::MakeDefault();
  narrow.window = 2;
  SortedNeighborhoodConfig wide = SortedNeighborhoodConfig::MakeDefault();
  wide.window = 16;
  const auto narrow_pairs = SortedNeighborhoodPairs(old_d, new_d, narrow);
  const auto wide_pairs = SortedNeighborhoodPairs(old_d, new_d, wide);
  EXPECT_LT(narrow_pairs.size(), wide_pairs.size());
  // Narrow candidates are a subset of wide ones.
  std::set<std::pair<RecordId, RecordId>> wide_set;
  for (const auto& p : wide_pairs) wide_set.emplace(p.old_id, p.new_id);
  for (const auto& p : narrow_pairs) {
    EXPECT_TRUE(wide_set.count({p.old_id, p.new_id}));
  }
}

TEST(SortedNeighborhoodTest, EmptyKeysExcluded) {
  CensusDataset old_d(1871);
  old_d.AddHousehold("h", {MakeRecord("r1", "", "", Sex::kMale, 30,
                                      Role::kHead, "", "")});
  CensusDataset new_d(1881);
  new_d.AddHousehold("h", {MakeRecord("n1", "", "", Sex::kMale, 40,
                                      Role::kHead, "", "")});
  EXPECT_TRUE(SortedNeighborhoodPairs(
                  old_d, new_d, SortedNeighborhoodConfig::MakeDefault())
                  .empty());
}

TEST(SortedNeighborhoodTest, UnionWithBlockingImprovesCompleteness) {
  GeneratorConfig config;
  config.seed = 31;
  config.scale = 0.05;
  config.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(config, 0);
  const auto blocked = GenerateCandidatePairs(
      pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
  const auto snm = SortedNeighborhoodPairs(
      pair.old_dataset, pair.new_dataset,
      SortedNeighborhoodConfig::MakeDefault());
  const auto unioned = UnionCandidatePairs(blocked, snm);
  EXPECT_GE(unioned.size(), blocked.size());
  EXPECT_GE(unioned.size(), snm.size());
  EXPECT_LE(unioned.size(), blocked.size() + snm.size());

  auto completeness = [&](const std::vector<CandidatePair>& candidates) {
    auto gold =
        ResolveGold(pair.gold, pair.old_dataset, pair.new_dataset).value();
    std::set<std::pair<RecordId, RecordId>> set;
    for (const auto& c : candidates) set.emplace(c.old_id, c.new_id);
    size_t found = 0;
    for (const RecordLink& link : gold.record_links) {
      if (set.count(link)) ++found;
    }
    return static_cast<double>(found) / gold.record_links.size();
  };
  EXPECT_GE(completeness(unioned), completeness(blocked));
}

// The record-list overload over every id is the whole-dataset pass; over a
// subset it only ever pairs listed records.
TEST(SortedNeighborhoodTest, RecordListsRestrictThePass) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SortedNeighborhoodConfig config =
      SortedNeighborhoodConfig::MakeDefault();
  std::vector<RecordId> all_old, all_new;
  for (RecordId r = 0; r < old_d.num_records(); ++r) all_old.push_back(r);
  for (RecordId r = 0; r < new_d.num_records(); ++r) all_new.push_back(r);
  EXPECT_EQ(SortedNeighborhoodPairs(old_d, all_old, new_d, all_new, config),
            SortedNeighborhoodPairs(old_d, new_d, config));

  const std::vector<RecordId> some_old = {0, 2};
  const std::vector<RecordId> some_new = {0, 6};
  const auto pairs =
      SortedNeighborhoodPairs(old_d, some_old, new_d, some_new, config);
  ASSERT_FALSE(pairs.empty());
  for (const CandidatePair& p : pairs) {
    EXPECT_TRUE(p.old_id == 0 || p.old_id == 2);
    EXPECT_TRUE(p.new_id == 0 || p.new_id == 6);
  }
  EXPECT_TRUE(
      SortedNeighborhoodPairs(old_d, {}, new_d, some_new, config).empty());
}

TEST(UnionCandidatePairsTest, Deduplicates) {
  const std::vector<CandidatePair> a = {{0, 0}, {1, 2}};
  const std::vector<CandidatePair> b = {{1, 2}, {3, 4}};
  const auto u = UnionCandidatePairs(a, b);
  ASSERT_EQ(u.size(), 3u);
  EXPECT_EQ(u[0].old_id, 0u);
  EXPECT_EQ(u[1].old_id, 1u);
  EXPECT_EQ(u[2].old_id, 3u);
  EXPECT_EQ(UnionCandidatePairs(a, {}), a);
  EXPECT_EQ(UnionCandidatePairs({}, b), b);
  EXPECT_EQ(UnionCandidatePairs(a, a), a);
}

TEST(UnionCandidatePairsDeathTest, RejectsUnsortedInputInDebug) {
#ifndef NDEBUG
  const std::vector<CandidatePair> sorted = {{0, 1}, {2, 0}};
  const std::vector<CandidatePair> unsorted = {{2, 0}, {0, 1}};
  EXPECT_DEATH(UnionCandidatePairs(unsorted, sorted), "not sorted");
  EXPECT_DEATH(UnionCandidatePairs(sorted, unsorted), "not sorted");
#else
  GTEST_SKIP() << "DCHECK contracts compile out under NDEBUG";
#endif
}

}  // namespace
}  // namespace tglink
