// Differential verification of BuildAllSubgraphs' candidate generation
// (DESIGN.md §14). The library hands blocks of old households to the pool;
// each household reads its active members' CSR rows for the kept pairs
// admissible at δ whose new record is active, groups them by new household
// with a counting pass, and builds only keys whose pairs hold two distinct
// old and two distinct new records. This suite keeps the label-member
// enumeration as the oracle: every old×new cross product of every label
// nominates a household pair, each nominated pair is built by an
// |old|×|new| member scan, and a vertex's similarity is looked up in a
// std::map built from ForEachKeptPair, where a miss means "not a vertex".
// The two must return the same non-empty subgraphs, element by element
// and bit for bit, and the same subgraph.member_pairs, filtered_keys,
// candidate_group_pairs and built counts, at every δ of the schedule:
//
//   * on the paper's Fig. 3/4 fixture and on every scenario-registry
//     preset at small scale, replaying Algorithm 1's rounds so the active
//     record sets shrink as they do in LinkCensusPair;
//   * on a census pair whose old-household count leaves a partial last
//     block;
//   * on clusterings of chosen active record sets that hit the filter's
//     edge cases: a key with one member pair, a key whose pairs share one
//     old record, a key fed by two different labels, and one old household
//     feeding three new households through two labels.
//
// A further property pins the vertex rule itself on every preset: each
// vertex of each built subgraph is a kept pair admissible at δ between
// active records, and subgraph.member_pairs never exceeds the round's
// admissible kept pairs.
//
// Runs serially by default; TGLINK_TEST_THREADS=0 (a second ctest entry)
// reruns everything on one worker per hardware thread.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/graph/enrichment.h"
#include "tglink/linkage/config.h"
#include "tglink/linkage/prematching.h"
#include "tglink/linkage/selection.h"
#include "tglink/linkage/subgraph.h"
#include "tglink/obs/metrics.h"
#include "tglink/similarity/numeric.h"
#include "tglink/synth/generator.h"
#include "tglink/util/parallel.h"
#include "tests/paper_example.h"
#include "tests/proptest.h"

namespace tglink {
namespace {

using testing_example::MakeCensus1871;
using testing_example::MakeCensus1881;

// ---------------------------------------------------------------------------
// Oracle: the label-member enumeration, the per-pair member scan and a map
// of the kept pairs.

using KeptPairs = std::map<std::pair<RecordId, RecordId>, double>;

KeptPairs KeptPairMap(const PreMatcher& prematcher) {
  KeptPairs kept;
  prematcher.ForEachKeptPair([&kept](const ScoredPair& p) {
    kept.emplace(std::make_pair(p.old_id, p.new_id), p.sim);
  });
  return kept;
}

/// The similarity of a vertex-eligible pair, or nullptr: a pair outside the
/// kept set, or one below δ, is not a vertex.
const double* VertexSimilarity(const KeptPairs& kept, RecordId o, RecordId n,
                               double delta) {
  const auto it = kept.find({o, n});
  if (it == kept.end() || it->second + 1e-12 < delta) return nullptr;
  return &it->second;
}

double OracleEdgeSimilarity(const HouseholdGraph& old_graph,
                            const HouseholdGraph& new_graph,
                            const SubgraphVertex& vi, const SubgraphVertex& vj,
                            const LinkageConfig& config) {
  const RelEdge* old_edge = old_graph.EdgeBetween(vi.old_id, vj.old_id);
  const RelEdge* new_edge = new_graph.EdgeBetween(vi.new_id, vj.new_id);
  if (old_edge == nullptr || new_edge == nullptr) return -1.0;
  if (old_edge->type != new_edge->type) return -1.0;
  if (old_edge->age_diff_known && new_edge->age_diff_known) {
    const int d_old =
        old_graph.OrientedAgeDiff(*old_edge, vi.old_id, vj.old_id);
    const int d_new =
        new_graph.OrientedAgeDiff(*new_edge, vi.new_id, vj.new_id);
    const double rp_sim =
        AgeDiffSimilarity(d_old, d_new, config.edge_age_tolerance);
    return rp_sim > 0.0 ? rp_sim : -1.0;
  }
  return 0.5;
}

GroupPairSubgraph OracleBuild(GroupId old_group, GroupId new_group,
                              const HouseholdGraph& old_graph,
                              const HouseholdGraph& new_graph,
                              const Clustering& clustering,
                              const KeptPairs& kept,
                              const LinkageConfig& config,
                              const CensusDataset& old_dataset,
                              const CensusDataset& new_dataset, double delta) {
  GroupPairSubgraph subgraph;
  subgraph.old_group = old_group;
  subgraph.new_group = new_group;
  const int year_gap = new_dataset.year() - old_dataset.year();

  std::vector<SubgraphVertex> candidates;
  for (RecordId o : old_graph.members()) {
    const uint32_t label = clustering.old_labels[o];
    if (label == Clustering::kNoLabel) continue;
    const PersonRecord& old_rec = old_dataset.record(o);
    for (RecordId n : new_graph.members()) {
      if (clustering.new_labels[n] != label) continue;
      const PersonRecord& new_rec = new_dataset.record(n);
      double age_sim = 0.5;
      if (old_rec.has_age() && new_rec.has_age()) {
        const int gate = config.vertex_age_tolerance;
        age_sim = TemporalAgeSimilarity(old_rec.age, new_rec.age, year_gap,
                                        gate > 0 ? gate : 7);
        if (gate > 0 && age_sim <= 0.0) continue;
      }
      const double* sim = VertexSimilarity(kept, o, n, delta);
      if (sim == nullptr) continue;
      candidates.push_back({o, n, *sim, age_sim});
    }
  }
  if (candidates.empty()) return subgraph;

  std::sort(candidates.begin(), candidates.end(),
            [](const SubgraphVertex& a, const SubgraphVertex& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              if (a.age_sim != b.age_sim) return a.age_sim > b.age_sim;
              if (a.old_id != b.old_id) return a.old_id < b.old_id;
              return a.new_id < b.new_id;
            });
  std::unordered_set<RecordId> used_old, used_new;
  std::vector<SubgraphVertex> vertices;
  for (const SubgraphVertex& cand : candidates) {
    if (used_old.count(cand.old_id) || used_new.count(cand.new_id)) continue;
    used_old.insert(cand.old_id);
    used_new.insert(cand.new_id);
    vertices.push_back(cand);
  }

  std::vector<SubgraphEdge> edges;
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    for (uint32_t j = i + 1; j < vertices.size(); ++j) {
      const double rp_sim = OracleEdgeSimilarity(old_graph, new_graph,
                                                 vertices[i], vertices[j],
                                                 config);
      if (rp_sim >= 0.0) edges.push_back({i, j, rp_sim});
    }
  }

  std::vector<bool> covered(vertices.size(), false);
  for (const SubgraphEdge& e : edges) covered[e.v1] = covered[e.v2] = true;
  std::vector<uint32_t> new_index(vertices.size(), UINT32_MAX);
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    if (!covered[i]) continue;
    new_index[i] = static_cast<uint32_t>(subgraph.vertices.size());
    subgraph.vertices.push_back(vertices[i]);
  }
  for (const SubgraphEdge& e : edges) {
    subgraph.edges.push_back({new_index[e.v1], new_index[e.v2], e.rp_sim});
  }
  if (subgraph.vertices.empty()) return subgraph;

  double sim_sum = 0.0;
  size_t label_size_sum = 0;
  for (const SubgraphVertex& v : subgraph.vertices) {
    sim_sum += v.sim;
    label_size_sum += clustering.LabelSize(clustering.old_labels[v.old_id]);
  }
  subgraph.avg_sim = sim_sum / static_cast<double>(subgraph.vertices.size());
  double rp_sum = 0.0;
  for (const SubgraphEdge& e : subgraph.edges) rp_sum += e.rp_sim;
  const size_t total_edges = old_graph.num_edges() + new_graph.num_edges();
  subgraph.e_sim =
      total_edges == 0 ? 0.0 : 2.0 * rp_sum / static_cast<double>(total_edges);
  subgraph.uniqueness = 2.0 * static_cast<double>(subgraph.vertices.size()) /
                        static_cast<double>(label_size_sum);
  const GroupScoreWeights& w = config.group_weights;
  subgraph.g_sim = w.alpha * subgraph.avg_sim + w.beta * subgraph.e_sim +
                   w.uniqueness_weight() * subgraph.uniqueness;
  return subgraph;
}

/// The counters BuildAllSubgraphs reports for one call.
struct Counts {
  uint64_t member_pairs = 0;
  uint64_t filtered_keys = 0;
  uint64_t candidate_group_pairs = 0;
  uint64_t built = 0;
};

Counts ReadCounts() {
  obs::MetricsRegistry& m = obs::GlobalMetrics();
  return {m.GetCounter("subgraph.member_pairs").Value(),
          m.GetCounter("subgraph.filtered_keys").Value(),
          m.GetCounter("subgraph.candidate_group_pairs").Value(),
          m.GetCounter("subgraph.built").Value()};
}

Counts CountsSince(const Counts& before) {
  const Counts after = ReadCounts();
  return {after.member_pairs - before.member_pairs,
          after.filtered_keys - before.filtered_keys,
          after.candidate_group_pairs - before.candidate_group_pairs,
          after.built - before.built};
}

void ExpectSameCounts(const Counts& expected, const Counts& actual,
                      const std::string& where) {
  EXPECT_EQ(expected.member_pairs, actual.member_pairs) << where;
  EXPECT_EQ(expected.filtered_keys, actual.filtered_keys) << where;
  EXPECT_EQ(expected.candidate_group_pairs, actual.candidate_group_pairs)
      << where;
  EXPECT_EQ(expected.built, actual.built) << where;
}

struct OracleResult {
  std::vector<GroupPairSubgraph> subgraphs;
  Counts counts;
};

/// Every (old household, new household) pair sharing a label, built
/// unfiltered; the non-empty subgraphs in key order. The counts are those
/// the rule and the two-and-two filter imply: a member pair is a
/// label-shared pair that is a kept pair admissible at δ, and a key with
/// member pairs is a candidate iff they hold two distinct old and two
/// distinct new records.
OracleResult OracleBuildAll(const CensusDataset& old_dataset,
                            const CensusDataset& new_dataset,
                            const std::vector<HouseholdGraph>& old_graphs,
                            const std::vector<HouseholdGraph>& new_graphs,
                            const Clustering& clustering,
                            const KeptPairs& kept,
                            const LinkageConfig& config, double delta) {
  std::vector<std::vector<RecordId>> label_old(clustering.num_labels);
  std::vector<std::vector<RecordId>> label_new(clustering.num_labels);
  for (RecordId o = 0; o < clustering.old_labels.size(); ++o) {
    const uint32_t label = clustering.old_labels[o];
    if (label != Clustering::kNoLabel) label_old[label].push_back(o);
  }
  for (RecordId n = 0; n < clustering.new_labels.size(); ++n) {
    const uint32_t label = clustering.new_labels[n];
    if (label != Clustering::kNoLabel) label_new[label].push_back(n);
  }
  std::map<uint64_t, std::vector<std::pair<RecordId, RecordId>>> keys;
  OracleResult result;
  for (uint32_t label = 0; label < clustering.num_labels; ++label) {
    for (RecordId o : label_old[label]) {
      const GroupId go = old_dataset.record(o).group;
      for (RecordId n : label_new[label]) {
        const GroupId gn = new_dataset.record(n).group;
        auto& members = keys[(static_cast<uint64_t>(go) << 32) | gn];
        if (VertexSimilarity(kept, o, n, delta) == nullptr) continue;
        members.emplace_back(o, n);
        ++result.counts.member_pairs;
      }
    }
  }
  for (const auto& [key, members] : keys) {
    std::set<RecordId> olds;
    std::set<RecordId> news;
    for (const auto& [o, n] : members) {
      olds.insert(o);
      news.insert(n);
    }
    if (olds.size() >= 2 && news.size() >= 2) {
      ++result.counts.candidate_group_pairs;
    } else if (!members.empty()) {
      ++result.counts.filtered_keys;
    }
    const GroupId go = static_cast<GroupId>(key >> 32);
    const GroupId gn = static_cast<GroupId>(key & 0xFFFFFFFFu);
    GroupPairSubgraph subgraph =
        OracleBuild(go, gn, old_graphs[go], new_graphs[gn], clustering, kept,
                    config, old_dataset, new_dataset, delta);
    if (!subgraph.empty()) result.subgraphs.push_back(std::move(subgraph));
  }
  result.counts.built = result.subgraphs.size();
  return result;
}

// ---------------------------------------------------------------------------
// Comparison and drivers.

void ExpectSameSubgraphs(const std::vector<GroupPairSubgraph>& expected,
                         const std::vector<GroupPairSubgraph>& actual,
                         const std::string& where) {
  ASSERT_EQ(expected.size(), actual.size()) << where;
  for (size_t i = 0; i < expected.size(); ++i) {
    const GroupPairSubgraph& e = expected[i];
    const GroupPairSubgraph& a = actual[i];
    const std::string at = where + ", subgraph " + std::to_string(i);
    EXPECT_EQ(e.old_group, a.old_group) << at;
    EXPECT_EQ(e.new_group, a.new_group) << at;
    ASSERT_EQ(e.vertices.size(), a.vertices.size()) << at;
    for (size_t v = 0; v < e.vertices.size(); ++v) {
      EXPECT_EQ(e.vertices[v].old_id, a.vertices[v].old_id) << at;
      EXPECT_EQ(e.vertices[v].new_id, a.vertices[v].new_id) << at;
      EXPECT_EQ(e.vertices[v].sim, a.vertices[v].sim) << at;
      EXPECT_EQ(e.vertices[v].age_sim, a.vertices[v].age_sim) << at;
    }
    ASSERT_EQ(e.edges.size(), a.edges.size()) << at;
    for (size_t k = 0; k < e.edges.size(); ++k) {
      EXPECT_EQ(e.edges[k].v1, a.edges[k].v1) << at;
      EXPECT_EQ(e.edges[k].v2, a.edges[k].v2) << at;
      EXPECT_EQ(e.edges[k].rp_sim, a.edges[k].rp_sim) << at;
    }
    EXPECT_EQ(e.avg_sim, a.avg_sim) << at;
    EXPECT_EQ(e.e_sim, a.e_sim) << at;
    EXPECT_EQ(e.uniqueness, a.uniqueness) << at;
    EXPECT_EQ(e.g_sim, a.g_sim) << at;
  }
}

/// One round of a replayed schedule.
struct Round {
  const std::vector<HouseholdGraph>& old_graphs;
  const std::vector<HouseholdGraph>& new_graphs;
  const PreMatcher& prematcher;
  const KeptPairs& kept;
  const Clustering& clustering;
  const std::vector<bool>& active_old;
  const std::vector<bool>& active_new;
  double delta;
};

/// Replays the δ rounds of Algorithm 1 on one census pair, including rounds
/// after the one where LinkCensusPair would stop. `build` returns a round's
/// subgraphs, which greedy selection then consumes. Returns the number of
/// non-empty subgraphs seen, so callers can reject a vacuous corpus.
size_t ReplaySchedule(
    const CensusDataset& old_d, const CensusDataset& new_d,
    const LinkageConfig& config,
    const std::function<std::vector<GroupPairSubgraph>(const Round&)>&
        build) {
  const std::vector<HouseholdGraph> old_graphs = EnrichAllHouseholds(old_d);
  const std::vector<HouseholdGraph> new_graphs = EnrichAllHouseholds(new_d);
  SimilarityFunction sim_func = config.sim_func;
  sim_func.set_year_gap(new_d.year() - old_d.year());
  const PreMatcher prematcher(old_d, new_d, sim_func, config.blocking,
                              config.delta_low);
  const KeptPairs kept = KeptPairMap(prematcher);
  std::vector<bool> active_old(old_d.num_records(), true);
  std::vector<bool> active_new(new_d.num_records(), true);
  GroupMapping groups;
  RecordMapping records(old_d.num_records(), new_d.num_records());
  size_t built = 0;
  for (double delta = config.delta_high; delta + 1e-9 >= config.delta_low;
       delta -= config.delta_step) {
    const Clustering clustering =
        prematcher.Cluster(delta, active_old, active_new);
    std::vector<GroupPairSubgraph> subgraphs =
        build({old_graphs, new_graphs, prematcher, kept, clustering,
               active_old, active_new, delta});
    built += subgraphs.size();
    (void)SelectGroupLinks(std::move(subgraphs), &groups, &records,
                           &active_old, &active_new);
  }
  return built;
}

/// Compares the library against the oracle at every δ of the schedule.
size_t CompareOverSchedule(const CensusDataset& old_d,
                           const CensusDataset& new_d,
                           const LinkageConfig& config,
                           const std::string& name) {
  return ReplaySchedule(old_d, new_d, config, [&](const Round& r) {
    const Counts before = ReadCounts();
    std::vector<GroupPairSubgraph> actual =
        BuildAllSubgraphs(old_d, new_d, r.old_graphs, r.new_graphs,
                          r.clustering, r.prematcher, config, r.delta);
    const Counts counts = CountsSince(before);
    const OracleResult expected =
        OracleBuildAll(old_d, new_d, r.old_graphs, r.new_graphs,
                       r.clustering, r.kept, config, r.delta);
    const std::string where = name + " at delta " + std::to_string(r.delta);
    ExpectSameSubgraphs(expected.subgraphs, actual, where);
    ExpectSameCounts(expected.counts, counts, where);
    return actual;
  });
}

class SubgraphCandidatesPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* threads = std::getenv("TGLINK_TEST_THREADS");
    SetParallelThreadCount(threads != nullptr ? std::atoi(threads) : 1);
  }
  void TearDown() override { SetParallelThreadCount(1); }
};

/// Fig. 3's similarity function under the default schedule, exhaustive
/// blocking so every record pair is scored.
LinkageConfig PaperConfig() {
  LinkageConfig config = configs::DefaultConfig();
  config.sim_func = SimilarityFunction(
      {
          {Field::kFirstName, Measure::kQGramDice, 0.5},
          {Field::kSurname, Measure::kQGramDice, 0.5},
      },
      1.0);
  config.blocking = BlockingConfig::MakeExhaustive();
  return config;
}

TEST_F(SubgraphCandidatesPropertyTest, PaperFixtureMatchesOracle) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  LinkageConfig config = PaperConfig();
  EXPECT_GT(CompareOverSchedule(old_d, new_d, config, "paper"), 0u);
  // Fig. 4 literally: the decoy household's vertices enter without the age
  // gate, so the two-and-two filter meets more multi-vertex keys.
  config.vertex_age_tolerance = 0;
  EXPECT_GT(CompareOverSchedule(old_d, new_d, config, "paper, no age gate"),
            0u);
}

TEST_F(SubgraphCandidatesPropertyTest, EveryScenarioPresetMatchesOracle) {
  for (const proptest::NamedScenarioConfig& scenario :
       proptest::AllScenarioConfigs()) {
    GeneratorConfig gen = scenario.config;
    gen.seed = 20170321;
    gen.scale = 0.08;
    gen.num_censuses = 2;
    const SyntheticPair pair = GenerateCensusPair(gen, 0);
    EXPECT_GT(CompareOverSchedule(pair.old_dataset, pair.new_dataset,
                                  configs::DefaultConfig(), scenario.name),
              0u)
        << scenario.name;
  }
}

// The vertex rule: at every δ of the default schedule, every vertex of
// every built subgraph is a kept pair whose similarity is admitted at δ,
// between records still active in that round, and the round enumerates
// no more member pairs than it has admissible kept pairs.
TEST_F(SubgraphCandidatesPropertyTest,
       EveryPresetVertexIsAnAdmissibleKeptPair) {
  const LinkageConfig config = configs::DefaultConfig();
  for (const proptest::NamedScenarioConfig& scenario :
       proptest::AllScenarioConfigs()) {
    GeneratorConfig gen = scenario.config;
    gen.seed = 20170321;
    gen.scale = 0.08;
    gen.num_censuses = 2;
    const SyntheticPair pair = GenerateCensusPair(gen, 0);
    size_t vertices = 0;
    ReplaySchedule(
        pair.old_dataset, pair.new_dataset, config, [&](const Round& r) {
          const Counts before = ReadCounts();
          std::vector<GroupPairSubgraph> subgraphs = BuildAllSubgraphs(
              pair.old_dataset, pair.new_dataset, r.old_graphs, r.new_graphs,
              r.clustering, r.prematcher, config, r.delta);
          const std::string where =
              scenario.name + " at delta " + std::to_string(r.delta);
          EXPECT_LE(CountsSince(before).member_pairs,
                    r.prematcher.CountPairsAtDelta(r.delta, r.active_old,
                                                   r.active_new))
              << where;
          for (const GroupPairSubgraph& subgraph : subgraphs) {
            for (const SubgraphVertex& v : subgraph.vertices) {
              ++vertices;
              const auto it = r.kept.find({v.old_id, v.new_id});
              if (it == r.kept.end()) {
                ADD_FAILURE() << where << ": vertex (" << v.old_id << ", "
                              << v.new_id << ") is not a kept pair";
                continue;
              }
              EXPECT_EQ(v.sim, it->second) << where;
              EXPECT_GE(v.sim + 1e-12, r.delta) << where;
              EXPECT_TRUE(r.active_old[v.old_id] && r.active_new[v.new_id])
                  << where;
            }
          }
          return subgraphs;
        });
    EXPECT_GT(vertices, 0u) << scenario.name;
  }
}

// BuildAllSubgraphs hands old households to the pool in blocks; a census
// pair whose old-household count leaves a partial last block must still
// match the oracle, including the keys of that last block.
TEST_F(SubgraphCandidatesPropertyTest, PartialLastBlockMatchesOracle) {
  bool found = false;
  for (const double scale : {0.03, 0.05, 0.08}) {
    GeneratorConfig gen;
    gen.seed = 1807;
    gen.scale = scale;
    gen.num_censuses = 2;
    const SyntheticPair pair = GenerateCensusPair(gen, 0);
    const size_t households = pair.old_dataset.num_households();
    if (households <= kSubgraphBlockHouseholds ||
        households % kSubgraphBlockHouseholds == 0) {
      continue;
    }
    found = true;
    EXPECT_GT(CompareOverSchedule(pair.old_dataset, pair.new_dataset,
                                  configs::DefaultConfig(),
                                  "scale " + std::to_string(scale)),
              0u);
    break;
  }
  ASSERT_TRUE(found) << "no scale gave a partial last block";
}

// ---------------------------------------------------------------------------
// Chosen active record sets on the paper fixture, clustered by the
// PreMatcher at a chosen δ. Records: 1871 household A = {0 john, 1
// elizabeth, 2 alice, 3 william}; 1881 household A = {0 john, 1 elizabeth,
// 2 william}. John and Elizabeth are head and wife on both sides, two years
// apart, so a (0,0)+(1,1) subgraph has a matching edge. Every pair is kept
// (exhaustive blocking, min_threshold 0).

class SubgraphCandidateEdgeCaseTest : public SubgraphCandidatesPropertyTest {
 protected:
  SubgraphCandidateEdgeCaseTest()
      : old_d_(MakeCensus1871()),
        new_d_(MakeCensus1881()),
        old_graphs_(EnrichAllHouseholds(old_d_)),
        new_graphs_(EnrichAllHouseholds(new_d_)),
        config_(PaperConfig()),
        prematcher_(old_d_, new_d_, config_.sim_func,
                    BlockingConfig::MakeExhaustive(), /*min_threshold=*/0.0),
        kept_(KeptPairMap(prematcher_)) {
    config_.vertex_age_tolerance = 0;
  }

  /// The clustering at `delta` where only the listed records are active.
  Clustering MakeClustering(const std::vector<RecordId>& old_active,
                            const std::vector<RecordId>& new_active,
                            double delta) {
    active_old_.assign(old_d_.num_records(), false);
    active_new_.assign(new_d_.num_records(), false);
    for (RecordId o : old_active) active_old_[o] = true;
    for (RecordId n : new_active) active_new_[n] = true;
    return prematcher_.Cluster(delta, active_old_, active_new_);
  }

  /// Builds with the library and the oracle, checks they agree, and
  /// returns the library's subgraphs plus the counter deltas.
  std::vector<GroupPairSubgraph> BuildBoth(const Clustering& clustering,
                                           double delta, Counts* counts) {
    const Counts before = ReadCounts();
    std::vector<GroupPairSubgraph> actual =
        BuildAllSubgraphs(old_d_, new_d_, old_graphs_, new_graphs_,
                          clustering, prematcher_, config_, delta);
    *counts = CountsSince(before);
    const OracleResult expected =
        OracleBuildAll(old_d_, new_d_, old_graphs_, new_graphs_, clustering,
                       kept_, config_, delta);
    ExpectSameSubgraphs(expected.subgraphs, actual, "edge case");
    ExpectSameCounts(expected.counts, *counts, "edge case");
    EXPECT_EQ(counts->member_pairs,
              prematcher_.CountPairsAtDelta(delta, active_old_, active_new_));
    return actual;
  }

  CensusDataset old_d_;
  CensusDataset new_d_;
  std::vector<HouseholdGraph> old_graphs_;
  std::vector<HouseholdGraph> new_graphs_;
  LinkageConfig config_;
  PreMatcher prematcher_;
  KeptPairs kept_;
  std::vector<bool> active_old_;
  std::vector<bool> active_new_;
};

TEST_F(SubgraphCandidateEdgeCaseTest, KeyWithSingleMemberPairIsFiltered) {
  Counts counts{};
  const auto subgraphs = BuildBoth(MakeClustering({0}, {0}, 0.0), 0.0, &counts);
  EXPECT_TRUE(subgraphs.empty());
  EXPECT_EQ(counts.member_pairs, 1u);
  EXPECT_EQ(counts.filtered_keys, 1u);
  EXPECT_EQ(counts.candidate_group_pairs, 0u);
}

TEST_F(SubgraphCandidateEdgeCaseTest, KeyWithOneSharedOldRecordIsFiltered) {
  // (0,0) and (0,1): two new records but one old, so at most one vertex.
  Counts counts{};
  const Clustering clustering = MakeClustering({0}, {0, 1}, 0.0);
  const auto subgraphs = BuildBoth(clustering, 0.0, &counts);
  EXPECT_TRUE(subgraphs.empty());
  EXPECT_EQ(counts.member_pairs, 2u);
  EXPECT_EQ(counts.filtered_keys, 1u);
  EXPECT_EQ(counts.candidate_group_pairs, 0u);
  // The unfiltered builder agrees that the key is empty.
  EXPECT_TRUE(BuildGroupPairSubgraph(
                  testing_example::kG1871A, testing_example::kG1881A,
                  old_graphs_[testing_example::kG1871A],
                  new_graphs_[testing_example::kG1881A], clustering,
                  prematcher_, config_, old_d_, new_d_, 0.0)
                  .empty());
}

TEST_F(SubgraphCandidateEdgeCaseTest, KeyFedByTwoLabelsIsBuilt) {
  // At δ = 1 only the exact name pairs are admissible, so John's and
  // Elizabeth's pairs carry different labels but nominate the same
  // household pair; together they form the spouse edge.
  Counts counts{};
  const Clustering clustering = MakeClustering({0, 1}, {0, 1}, 1.0);
  ASSERT_NE(clustering.old_labels[0], clustering.old_labels[1]);
  const auto subgraphs = BuildBoth(clustering, 1.0, &counts);
  EXPECT_EQ(counts.member_pairs, 2u);
  EXPECT_EQ(counts.filtered_keys, 0u);
  EXPECT_EQ(counts.candidate_group_pairs, 1u);
  ASSERT_EQ(subgraphs.size(), 1u);
  EXPECT_EQ(subgraphs[0].old_group, testing_example::kG1871A);
  EXPECT_EQ(subgraphs[0].new_group, testing_example::kG1881A);
  EXPECT_EQ(subgraphs[0].vertices.size(), 2u);
  EXPECT_EQ(subgraphs[0].edges.size(), 1u);
}

TEST_F(SubgraphCandidateEdgeCaseTest,
       OldHouseholdFeedingSeveralNewHouseholdsThroughTwoLabels) {
  // At δ = 0.6 a shared first name plus a partly shared surname is
  // admissible, a shared surname alone is not. So 1871 household A's John
  // (0) joins the Johns of 1881 households A (0), B (3) and D (8), and its
  // Elizabeth (1) the Elizabeths (1, 4, 9): one old household nominates
  // three new ones, each through both labels.
  Counts counts{};
  const Clustering clustering =
      MakeClustering({0, 1}, {0, 1, 3, 4, 8, 9}, 0.6);
  ASSERT_NE(clustering.old_labels[0], clustering.old_labels[1]);
  for (RecordId n : {0, 3, 8}) {
    ASSERT_EQ(clustering.new_labels[n], clustering.old_labels[0]) << n;
  }
  for (RecordId n : {1, 4, 9}) {
    ASSERT_EQ(clustering.new_labels[n], clustering.old_labels[1]) << n;
  }
  const auto subgraphs = BuildBoth(clustering, 0.6, &counts);
  EXPECT_EQ(counts.member_pairs, 6u);
  EXPECT_EQ(counts.filtered_keys, 0u);
  EXPECT_EQ(counts.candidate_group_pairs, 3u);
  EXPECT_EQ(counts.built, subgraphs.size());
  ASSERT_FALSE(subgraphs.empty());
  for (const GroupPairSubgraph& subgraph : subgraphs) {
    EXPECT_EQ(subgraph.old_group, testing_example::kG1871A);
  }
  EXPECT_TRUE(std::is_sorted(subgraphs.begin(), subgraphs.end(),
                             [](const GroupPairSubgraph& a,
                                const GroupPairSubgraph& b) {
                               return a.new_group < b.new_group;
                             }));
}

}  // namespace
}  // namespace tglink
