#include "tglink/baselines/collective.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>

#include "tglink/linkage/prematching.h"
#include "tglink/similarity/sim_batch.h"
#include "tglink/util/parallel.h"

namespace tglink {

namespace {

struct QueueEntry {
  double score;
  RecordId old_id;
  RecordId new_id;

  bool operator<(const QueueEntry& other) const {
    // std::priority_queue is a max-heap on operator<; break score ties on
    // ids for determinism.
    if (score != other.score) return score < other.score;
    if (old_id != other.old_id) return old_id > other.old_id;
    return new_id > other.new_id;
  }
};

class CollectiveState {
 public:
  CollectiveState(const CensusDataset& old_dataset,
                  const CensusDataset& new_dataset,
                  const CollectiveConfig& config)
      : old_dataset_(old_dataset),
        new_dataset_(new_dataset),
        config_(config),
        mapping_(old_dataset.num_records(), new_dataset.num_records()) {}

  /// Relational similarity: fraction of the pair's household neighbours
  /// already matched across the two households.
  double RelationalSimilarity(RecordId o, RecordId n) const {
    const Household& old_hh =
        old_dataset_.household(old_dataset_.record(o).group);
    const Household& new_hh =
        new_dataset_.household(new_dataset_.record(n).group);
    const size_t deg_old = old_hh.members.size() - 1;
    const size_t deg_new = new_hh.members.size() - 1;
    const size_t denom = std::max(deg_old, deg_new);
    if (denom == 0) return 0.0;
    size_t matched_neighbours = 0;
    const GroupId new_group = new_dataset_.record(n).group;
    for (RecordId co : old_hh.members) {
      if (co == o) continue;
      const RecordId partner = mapping_.NewFor(co);
      if (partner != kInvalidRecord && partner != n &&
          new_dataset_.record(partner).group == new_group) {
        ++matched_neighbours;
      }
    }
    return static_cast<double>(matched_neighbours) /
           static_cast<double>(denom);
  }

  double CombinedScore(RecordId o, RecordId n, double attr_sim) const {
    return (1.0 - config_.relational_weight) * attr_sim +
           config_.relational_weight * RelationalSimilarity(o, n);
  }

  RecordMapping& mapping() { return mapping_; }

 private:
  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;
  const CollectiveConfig& config_;
  RecordMapping mapping_;
};

}  // namespace

RecordMapping CollectiveLink(const CensusDataset& old_dataset,
                             const CensusDataset& new_dataset,
                             const CollectiveConfig& config) {
  SimilarityFunction sim_func = config.sim_func;
  const int year_gap = new_dataset.year() - old_dataset.year();
  sim_func.set_year_gap(year_gap);

  // Score candidates once; apply the age filter and the similarity floor.
  // Scoring fans out over the shared pool through the batched kernels with
  // the similarity floor passed down as the pruning cutoff; the -1
  // sentinel marks both age-filtered and bound-pruned pairs (kPruned is
  // also -1 and pruning is sound), so the serial merge below keeps exactly
  // what the exact serial loop kept, in the same order.
  const std::vector<CandidatePair> raw_candidates =
      GenerateCandidatePairs(old_dataset, new_dataset, config.blocking);
  const SimBatch sim_batch(sim_func, old_dataset, new_dataset);
  const std::vector<double> sims = ParallelMap<double>(
      raw_candidates.size(), "collective.score_chunk", [&](size_t i) {
        const CandidatePair& cand = raw_candidates[i];
        const PersonRecord& ro = old_dataset.record(cand.old_id);
        const PersonRecord& rn = new_dataset.record(cand.new_id);
        if (ro.has_age() && rn.has_age() &&
            std::abs(ro.age + year_gap - rn.age) > config.max_age_difference) {
          return -1.0;
        }
        return sim_batch.AggregateWithThreshold(cand.old_id, cand.new_id,
                                                config.min_similarity);
      });
  std::unordered_map<uint64_t, double> attr_sim;
  std::vector<ScoredPair> candidates;
  for (size_t i = 0; i < raw_candidates.size(); ++i) {
    const CandidatePair& cand = raw_candidates[i];
    const double sim = sims[i];
    if (sim < config.min_similarity) continue;
    candidates.push_back({cand.old_id, cand.new_id, sim});
    attr_sim.emplace(
        (static_cast<uint64_t>(cand.old_id) << 32) | cand.new_id, sim);
  }

  CollectiveState state(old_dataset, new_dataset, config);

  // Seed phase: greedy 1:1 on attribute similarity alone at the seed
  // threshold.
  std::vector<ScoredPair> seeds;
  for (const ScoredPair& pair : candidates) {
    if (pair.sim >= config.seed_threshold) seeds.push_back(pair);
  }
  std::sort(seeds.begin(), seeds.end(),
            [](const ScoredPair& a, const ScoredPair& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              if (a.old_id != b.old_id) return a.old_id < b.old_id;
              return a.new_id < b.new_id;
            });
  for (const ScoredPair& seed : seeds) {
    if (state.mapping().IsOldLinked(seed.old_id) ||
        state.mapping().IsNewLinked(seed.new_id)) {
      continue;
    }
    const Status st = state.mapping().Add(seed.old_id, seed.new_id);
    assert(st.ok());
    (void)st;
  }

  // Greedy collective phase with a lazily updated max-heap. Relational
  // similarity only grows as links accumulate, so a popped entry whose
  // recomputed score increased is re-pushed; otherwise its stored score was
  // current and the pop order is correct.
  std::priority_queue<QueueEntry> queue;
  for (const ScoredPair& pair : candidates) {
    if (state.mapping().IsOldLinked(pair.old_id) ||
        state.mapping().IsNewLinked(pair.new_id)) {
      continue;
    }
    queue.push({state.CombinedScore(pair.old_id, pair.new_id, pair.sim),
                pair.old_id, pair.new_id});
  }
  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (state.mapping().IsOldLinked(top.old_id) ||
        state.mapping().IsNewLinked(top.new_id)) {
      continue;
    }
    const double attr =
        attr_sim.at((static_cast<uint64_t>(top.old_id) << 32) | top.new_id);
    const double current = state.CombinedScore(top.old_id, top.new_id, attr);
    if (current > top.score + 1e-12) {
      queue.push({current, top.old_id, top.new_id});
      continue;
    }
    if (current < config.accept_threshold) break;  // no acceptable pair left
    const Status st = state.mapping().Add(top.old_id, top.new_id);
    assert(st.ok());
    (void)st;
    // Accepting this pair can only raise scores of neighbouring pairs; they
    // are re-evaluated lazily when popped (scores in the queue are lower
    // bounds, so no eager re-push is needed for correctness of order — but
    // entries below the accept threshold at push time would never fire.
    // Re-push the affected neighbour pairs with fresh scores.)
    const Household& old_hh =
        old_dataset.household(old_dataset.record(top.old_id).group);
    const Household& new_hh =
        new_dataset.household(new_dataset.record(top.new_id).group);
    for (RecordId o : old_hh.members) {
      if (state.mapping().IsOldLinked(o)) continue;
      for (RecordId n : new_hh.members) {
        if (state.mapping().IsNewLinked(n)) continue;
        auto it =
            attr_sim.find((static_cast<uint64_t>(o) << 32) | n);
        if (it == attr_sim.end()) continue;
        queue.push({state.CombinedScore(o, n, it->second), o, n});
      }
    }
  }

  return std::move(state.mapping());
}

}  // namespace tglink
