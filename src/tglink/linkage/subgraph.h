// Subgraph matching (Section 3.3): for every pair of households joined by
// a vertex candidate, construct the common subgraph of record pairs whose
// relationships agree in unified type and age difference, and score it
// with the three criteria of Section 3.4. A vertex is a kept pair of the
// PreMatcher admissible at the round's δ between active records, so its
// ends share a cluster label (DESIGN.md §14).

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

/// Builds and scores the common subgraph for one group pair from the kept
/// pairs admissible at `delta` between its active members; `clustering`
/// comes from PreMatcher::Cluster at the same δ. Equal labels alone are
/// not enough: transitive chaining would let dissimilar records in.
/// Records in several candidates are resolved greedily 1:1 by descending
/// record similarity. Vertices without any matching incident edge are
/// pruned (cf. Fig. 4 of the paper); a pruned-empty subgraph means the
/// group pair yields no candidate — single-record overlaps are recovered
/// later by residual matching.
GroupPairSubgraph BuildGroupPairSubgraph(
    GroupId old_group, GroupId new_group, const HouseholdGraph& old_graph,
    const HouseholdGraph& new_graph, const Clustering& clustering,
    const PreMatcher& prematcher, const LinkageConfig& config,
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    double delta);

/// BuildAllSubgraphs hands old households to the pool in blocks of this
/// many; the output does not depend on it.
inline constexpr size_t kSubgraphBlockHouseholds = 16;

/// Returns the non-empty scored subgraphs of all group pairs joined by a
/// vertex candidate, ordered by (old group, new group). Only pairs whose
/// candidates include two distinct old and two distinct new records are
/// built; no other pair can have an edge (DESIGN.md §14).
std::vector<GroupPairSubgraph> BuildAllSubgraphs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const std::vector<HouseholdGraph>& old_graphs,
    const std::vector<HouseholdGraph>& new_graphs,
    const Clustering& clustering, const PreMatcher& prematcher,
    const LinkageConfig& config, double delta);

}  // namespace tglink

#endif  // TGLINK_LINKAGE_SUBGRAPH_H_
