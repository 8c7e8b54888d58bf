// Subgraph matching (Section 3.3): for every pair of households that share
// at least one cluster label, construct the common subgraph of equally
// labeled record pairs whose relationships agree in unified type and age
// difference, and score it with the three criteria of Section 3.4.

#ifndef TGLINK_LINKAGE_SUBGRAPH_H_
#define TGLINK_LINKAGE_SUBGRAPH_H_

#include <cstddef>
#include <vector>

#include "tglink/census/dataset.h"
#include "tglink/graph/household_graph.h"
#include "tglink/linkage/config.h"
#include "tglink/linkage/prematching.h"

namespace tglink {

/// A vertex of a common subgraph: a pair of equally labeled records.
struct SubgraphVertex {
  RecordId old_id;
  RecordId new_id;
  double sim;  // agg_sim(old, new) from pre-matching
  /// Temporal age plausibility (ordering aid for the within-pair 1:1
  /// assignment; 0.5 when either age is unknown). Not part of Eq. 5.
  double age_sim = 0.5;
};

/// An edge of a common subgraph connecting vertices `v1` and `v2` (indices
/// into GroupPairSubgraph::vertices); rp_sim is the relationship-property
/// similarity of the underlying old and new edges (age-difference agreement).
struct SubgraphEdge {
  uint32_t v1;
  uint32_t v2;
  double rp_sim;
};

/// The common subgraph of one candidate group pair, with its selection
/// scores (Equations 4-7).
struct GroupPairSubgraph {
  GroupId old_group = kInvalidGroup;
  GroupId new_group = kInvalidGroup;
  std::vector<SubgraphVertex> vertices;
  std::vector<SubgraphEdge> edges;

  double avg_sim = 0.0;     // Eq. 5
  double e_sim = 0.0;       // Eq. 6
  double uniqueness = 0.0;  // Eq. 7
  double g_sim = 0.0;       // Eq. 4

  bool empty() const { return vertices.empty(); }
};

/// Builds and scores the common subgraph for one group pair. Only active
/// records participate (inactive ones carry kNoLabel in the clustering).
/// A vertex additionally requires the pair's *direct* aggregated similarity
/// to reach `delta`, the current iteration's threshold — equal labels alone
/// can be the product of transitive chaining through intermediate records
/// and would otherwise let dissimilar records into the mapping. Records
/// appearing in several equally-labeled pairs within the group pair are
/// resolved greedily 1:1 by descending record similarity. Vertices without
/// any matching incident edge are pruned (cf. Fig. 4 of the paper); a
/// pruned-empty subgraph means the group pair yields no candidate —
/// single-record overlaps are recovered later by residual matching.
GroupPairSubgraph BuildGroupPairSubgraph(
    GroupId old_group, GroupId new_group, const HouseholdGraph& old_graph,
    const HouseholdGraph& new_graph, const Clustering& clustering,
    const PreMatcher& prematcher, const LinkageConfig& config,
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    double delta);

/// BuildAllSubgraphs hands old households to the pool in blocks of this
/// many; the output does not depend on it.
inline constexpr size_t kSubgraphBlockHouseholds = 16;

/// Returns the non-empty scored subgraphs of all group pairs sharing >= 1
/// cluster label, ordered by (old group, new group). Only pairs whose
/// label-shared members include two distinct old and two distinct new
/// records are built; no other pair can have an edge (DESIGN.md §14).
std::vector<GroupPairSubgraph> BuildAllSubgraphs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const std::vector<HouseholdGraph>& old_graphs,
    const std::vector<HouseholdGraph>& new_graphs,
    const Clustering& clustering, const PreMatcher& prematcher,
    const LinkageConfig& config, double delta);

}  // namespace tglink

#endif  // TGLINK_LINKAGE_SUBGRAPH_H_
