#include "tglink/linkage/subgraph.h"

#include <algorithm>
#include <cstdint>

#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/similarity/numeric.h"
#include "tglink/util/logging.h"
#include "tglink/util/parallel.h"

namespace tglink {

namespace {

/// Relationship-property similarity of an old edge vs a new edge, oriented
/// from vertex i to vertex j on both sides. Returns a negative value when
/// the edges do not match (different type, or age differences deviating
/// beyond the tolerance).
double EdgePropertySimilarity(const HouseholdGraph& old_graph,
                              const HouseholdGraph& new_graph,
                              const SubgraphVertex& vi,
                              const SubgraphVertex& vj,
                              const LinkageConfig& config) {
  const RelEdge* old_edge = old_graph.EdgeBetween(vi.old_id, vj.old_id);
  const RelEdge* new_edge = new_graph.EdgeBetween(vi.new_id, vj.new_id);
  if (old_edge == nullptr || new_edge == nullptr) return -1.0;
  if (old_edge->type != new_edge->type) return -1.0;
  if (old_edge->age_diff_known && new_edge->age_diff_known) {
    const int d_old = old_graph.OrientedAgeDiff(*old_edge, vi.old_id, vj.old_id);
    const int d_new = new_graph.OrientedAgeDiff(*new_edge, vi.new_id, vj.new_id);
    const double rp_sim =
        AgeDiffSimilarity(d_old, d_new, config.edge_age_tolerance);
    return rp_sim > 0.0 ? rp_sim : -1.0;
  }
  // One of the age differences is unknown: the types agree, so accept the
  // edge with an agnostic property similarity.
  return 0.5;
}

/// A vertex candidate; `new_group` is the new record's household.
struct MemberPair {
  GroupId new_group;
  RecordId old_id;
  RecordId new_id;
  double sim;
};

/// Calls `fn(const MemberPair&)` on every kept pair admissible at `delta`
/// from an active member of `old_graph` to an active new record, read from
/// the members' CSR rows.
template <typename Fn>
void ForEachMemberPair(const HouseholdGraph& old_graph,
                       const Clustering& clustering,
                       const PreMatcher& prematcher,
                       const CensusDataset& new_dataset, double delta,
                       Fn&& fn) {
  for (RecordId o : old_graph.members()) {
    if (clustering.old_labels[o] == Clustering::kNoLabel) continue;
    prematcher.ForEachAdmissibleInRow(o, delta, [&](RecordId n, double sim) {
      if (clustering.new_labels[n] == Clustering::kNoLabel) return;
      fn(MemberPair{new_dataset.record(n).group, o, n, sim});
    });
  }
}

/// Builds and scores the common subgraph of (old_group, new_group) from its
/// member pairs [first, last), given in any order.
GroupPairSubgraph BuildFromMemberPairs(
    GroupId old_group, GroupId new_group, const MemberPair* first,
    const MemberPair* last, const HouseholdGraph& old_graph,
    const HouseholdGraph& new_graph, const Clustering& clustering,
    const LinkageConfig& config, const CensusDataset& old_dataset,
    const CensusDataset& new_dataset) {
  GroupPairSubgraph subgraph;
  subgraph.old_group = old_group;
  subgraph.new_group = new_group;
  const int year_gap = new_dataset.year() - old_dataset.year();

  // 1. Candidate vertices: member pairs whose recorded ages are temporally
  // plausible (footnote 2 of the paper).
  std::vector<SubgraphVertex> candidates;
  for (const MemberPair* p = first; p != last; ++p) {
    const PersonRecord& old_rec = old_dataset.record(p->old_id);
    const PersonRecord& new_rec = new_dataset.record(p->new_id);
    double age_sim = 0.5;
    if (old_rec.has_age() && new_rec.has_age()) {
      const int gate = config.vertex_age_tolerance;
      age_sim = TemporalAgeSimilarity(old_rec.age, new_rec.age, year_gap,
                                      gate > 0 ? gate : 7);
      if (gate > 0 && age_sim <= 0.0) continue;  // implausible ageing
    }
    candidates.push_back({p->old_id, p->new_id, p->sim, age_sim});
  }
  // A lone vertex has no incident edge, so step 4 would prune it.
  if (candidates.size() < 2) return subgraph;

  // 2. Resolve within-pair ambiguity (two equally named brothers, say) by a
  // greedy 1:1 assignment ordered by record similarity, breaking ties on
  // the temporally stable evidence — age plausibility. The order is total,
  // so the result does not depend on the order of the member pairs.
  std::sort(candidates.begin(), candidates.end(),
            [](const SubgraphVertex& a, const SubgraphVertex& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              if (a.age_sim != b.age_sim) return a.age_sim > b.age_sim;
              if (a.old_id != b.old_id) return a.old_id < b.old_id;
              return a.new_id < b.new_id;
            });
  std::vector<SubgraphVertex> vertices;
  for (const SubgraphVertex& cand : candidates) {
    const bool taken = std::any_of(
        vertices.begin(), vertices.end(), [&cand](const SubgraphVertex& v) {
          return v.old_id == cand.old_id || v.new_id == cand.new_id;
        });
    if (!taken) vertices.push_back(cand);
  }

  // 3. Edges: vertex pairs whose old and new records are connected by
  // relationships agreeing in unified type and age difference.
  std::vector<SubgraphEdge> edges;
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    for (uint32_t j = i + 1; j < vertices.size(); ++j) {
      const double rp_sim = EdgePropertySimilarity(
          old_graph, new_graph, vertices[i], vertices[j], config);
      if (rp_sim >= 0.0) edges.push_back({i, j, rp_sim});
    }
  }

  // 4. Prune vertices with no matching incident edge (Fig. 4), then
  // re-index the surviving edges.
  std::vector<bool> covered(vertices.size(), false);
  for (const SubgraphEdge& e : edges) {
    covered[e.v1] = covered[e.v2] = true;
  }
  std::vector<uint32_t> new_index(vertices.size(), UINT32_MAX);
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    if (!covered[i]) continue;
    new_index[i] = static_cast<uint32_t>(subgraph.vertices.size());
    subgraph.vertices.push_back(vertices[i]);
  }
  subgraph.edges.reserve(edges.size());
  for (const SubgraphEdge& e : edges) {
    subgraph.edges.push_back({new_index[e.v1], new_index[e.v2], e.rp_sim});
  }
  if (subgraph.vertices.empty()) return subgraph;

#ifndef NDEBUG
  // The soundness of BuildAllSubgraphs' two-and-two filter: a kept
  // subgraph has an edge, hence two vertices. An admissible kept pair
  // joins its ends into one label.
  TGLINK_DCHECK(subgraph.vertices.size() >= 2)
      << "non-empty subgraph with " << subgraph.vertices.size() << " vertex";
  for (const SubgraphVertex& v : subgraph.vertices) {
    TGLINK_DCHECK(clustering.old_labels[v.old_id] ==
                  clustering.new_labels[v.new_id])
        << "vertex (" << v.old_id << ", " << v.new_id
        << ") does not share a label";
  }
#endif

  // 5. Scores (Section 3.4).
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

}  // namespace

GroupPairSubgraph BuildGroupPairSubgraph(
    GroupId old_group, GroupId new_group, const HouseholdGraph& old_graph,
    const HouseholdGraph& new_graph, const Clustering& clustering,
    const PreMatcher& prematcher, const LinkageConfig& config,
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    double delta) {
  std::vector<MemberPair> members;
  ForEachMemberPair(old_graph, clustering, prematcher, new_dataset, delta,
                    [&members, new_group](const MemberPair& p) {
                      if (p.new_group == new_group) members.push_back(p);
                    });
  return BuildFromMemberPairs(old_group, new_group, members.data(),
                              members.data() + members.size(), old_graph,
                              new_graph, clustering, config, old_dataset,
                              new_dataset);
}

std::vector<GroupPairSubgraph> BuildAllSubgraphs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const std::vector<HouseholdGraph>& old_graphs,
    const std::vector<HouseholdGraph>& new_graphs,
    const Clustering& clustering, const PreMatcher& prematcher,
    const LinkageConfig& config, double delta) {
  TGLINK_TRACE_SPAN("subgraph.build_score", delta);
  TGLINK_MEM_STAGE("subgraph.build_score");
  // Candidate group pairs: every vertex candidate (o, n) nominates
  // (group(o), group(n)). Each old household reads its members' CSR rows
  // and groups the pairs by new household with a counting pass, so each key's
  // member pairs form one run and the keys come out ascending. A key can
  // yield a non-empty subgraph only if its run holds two distinct old and
  // two distinct new records: a matching edge joins two vertices, and the
  // 1:1 vertex selection uses each record once. Every other key is dropped
  // unbuilt. Blocks of old households enumerate and build on the pool,
  // keep only their non-empty subgraphs and merge in (old group, new
  // group) order, so the list is the same for any thread count.
  struct Block {
    std::vector<GroupPairSubgraph> kept;
    uint64_t member_pairs = 0;
    uint64_t filtered_keys = 0;
    uint64_t candidate_group_pairs = 0;
  };
  const size_t num_blocks =
      (old_graphs.size() + kSubgraphBlockHouseholds - 1) /
      kSubgraphBlockHouseholds;
  std::vector<Block> blocks(num_blocks);
  ParallelFor(num_blocks, "subgraph.build_chunk", [&](size_t first,
                                                      size_t last) {
    // Per-task scratch, reused across the task's households: slot[gn]
    // counts the member pairs of new household gn, then holds its run's
    // write cursor; it is zero again after each household.
    std::vector<uint32_t> slot(new_graphs.size(), 0);
    std::vector<GroupId> new_groups;
    std::vector<MemberPair> pairs;
    std::vector<MemberPair> grouped;
    for (size_t b = first; b < last; ++b) {
      Block& block = blocks[b];
      const size_t go_end =
          std::min(old_graphs.size(), (b + 1) * kSubgraphBlockHouseholds);
      for (GroupId go = static_cast<GroupId>(b * kSubgraphBlockHouseholds);
           go < go_end; ++go) {
        pairs.clear();
        new_groups.clear();
        ForEachMemberPair(old_graphs[go], clustering, prematcher,
                          new_dataset, delta, [&](const MemberPair& p) {
                            if (slot[p.new_group]++ == 0) {
                              new_groups.push_back(p.new_group);
                            }
                            pairs.push_back(p);
                          });
        block.member_pairs += pairs.size();
        std::sort(new_groups.begin(), new_groups.end());
        uint32_t offset = 0;
        for (GroupId gn : new_groups) {
          const uint32_t count = slot[gn];
          slot[gn] = offset;
          offset += count;
        }
        grouped.resize(pairs.size());
        for (const MemberPair& p : pairs) grouped[slot[p.new_group]++] = p;
        // slot[gn] is now the end of gn's run; runs are in new_groups order.
        uint32_t begin = 0;
        for (GroupId gn : new_groups) {
          const uint32_t end = slot[gn];
          slot[gn] = 0;
          bool two_old = false;
          bool two_new = false;
          for (uint32_t k = begin + 1; k < end; ++k) {
            two_old |= grouped[k].old_id != grouped[begin].old_id;
            two_new |= grouped[k].new_id != grouped[begin].new_id;
          }
          if (two_old && two_new) {
            ++block.candidate_group_pairs;
            GroupPairSubgraph subgraph = BuildFromMemberPairs(
                go, gn, grouped.data() + begin, grouped.data() + end,
                old_graphs[go], new_graphs[gn], clustering, config,
                old_dataset, new_dataset);
            if (!subgraph.empty()) block.kept.push_back(std::move(subgraph));
          } else {
            ++block.filtered_keys;
          }
          begin = end;
        }
      }
    }
  });

  std::vector<GroupPairSubgraph> subgraphs;
  uint64_t member_pairs = 0;
  uint64_t filtered_keys = 0;
  uint64_t candidate_group_pairs = 0;
  for (Block& block : blocks) {
    member_pairs += block.member_pairs;
    filtered_keys += block.filtered_keys;
    candidate_group_pairs += block.candidate_group_pairs;
    for (GroupPairSubgraph& subgraph : block.kept) {
      TGLINK_HISTOGRAM_SIZE("subgraph.vertices", subgraph.vertices.size());
      subgraphs.push_back(std::move(subgraph));
    }
  }
  TGLINK_COUNTER_ADD("subgraph.member_pairs", member_pairs);
  TGLINK_COUNTER_ADD("subgraph.filtered_keys", filtered_keys);
  TGLINK_COUNTER_ADD("subgraph.candidate_group_pairs", candidate_group_pairs);
  TGLINK_COUNTER_ADD("subgraph.built", subgraphs.size());
  TGLINK_COUNTER_ADD("subgraph.pruned_empty",
                     candidate_group_pairs - subgraphs.size());
  return subgraphs;
}

}  // namespace tglink
