#include "tglink/linkage/prematching.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "tglink/graph/union_find.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/util/logging.h"
#include "tglink/util/parallel.h"

namespace tglink {

PreMatcher::PreMatcher(const CensusDataset& old_dataset,
                       const CensusDataset& new_dataset,
                       const SimilarityFunction& sim_func,
                       const BlockingConfig& blocking, double min_threshold)
    : old_dataset_(old_dataset),
      new_dataset_(new_dataset),
      sim_cache_(sim_func, old_dataset, new_dataset) {
  TGLINK_TRACE_SPAN("prematch.score_candidates");
  TGLINK_MEM_STAGE("prematch.score_candidates");
  const std::vector<CandidatePair> candidates =
      GenerateCandidatePairs(old_dataset, new_dataset, blocking);
  // Score chunks in parallel; the per-candidate results come back in
  // candidate order, so the serial keep/merge below is bit-identical to
  // the single-threaded path. Passing min_threshold down lets the batched
  // kernels reject provably-losing pairs in O(1); the SimCache::kPruned
  // sentinel (-1) is below every admissible threshold, so the keep filter
  // needs no extra branch and the kept set equals the exact one.
  const std::vector<double> sims = ParallelMap<double>(
      candidates.size(), "prematch.score_chunk",
      [this, &candidates, min_threshold](size_t i) {
        const CandidatePair& cand = candidates[i];
        return sim_cache_.AggregateWithThreshold(cand.old_id, cand.new_id,
                                                 min_threshold);
      });
  // Candidates arrive sorted by (old, new), so the kept pairs fill the CSR
  // rows in order: count each row's pairs, then prefix-sum the counts into
  // row offsets.
  scored_pairs_.reserve(candidates.size() / 8);
  row_begin_.assign(old_dataset.num_records() + 1, 0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double sim = sims[i];
    if (sim >= min_threshold) {
      const CandidatePair& cand = candidates[i];
      TGLINK_DCHECK(i == 0 || candidates[i - 1].old_id < cand.old_id ||
                    (candidates[i - 1].old_id == cand.old_id &&
                     candidates[i - 1].new_id < cand.new_id))
          << "candidates not sorted by (old, new) at index " << i;
      TGLINK_HISTOGRAM_SCORE("prematch.kept_pair_sim", sim);
      scored_pairs_.push_back({cand.old_id, cand.new_id, sim});
      ++row_begin_[cand.old_id + 1];
      row_new_.push_back(cand.new_id);
      row_sim_.push_back(sim);
    }
  }
  std::partial_sum(row_begin_.begin(), row_begin_.end(), row_begin_.begin());
  // Descending-sim order makes the pairs admissible at any δ a prefix, so
  // the per-iteration Cluster/CountPairsAtDelta never rescan pairs the
  // current threshold already excludes. Ties break on (old, new) for
  // deterministic union-find label assignment.
  std::sort(scored_pairs_.begin(), scored_pairs_.end(),
            [](const ScoredPair& a, const ScoredPair& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              if (a.old_id != b.old_id) return a.old_id < b.old_id;
              return a.new_id < b.new_id;
            });
  TGLINK_COUNTER_ADD("prematch.pairs_scored", candidates.size());
  TGLINK_COUNTER_ADD("prematch.pairs_kept", scored_pairs_.size());
}

size_t PreMatcher::PrefixAtDelta(double delta) const {
  const auto it = std::partition_point(
      scored_pairs_.begin(), scored_pairs_.end(),
      [delta](const ScoredPair& p) { return p.sim + 1e-12 >= delta; });
  return static_cast<size_t>(it - scored_pairs_.begin());
}

size_t PreMatcher::CountPairsAtDelta(double delta,
                                     const std::vector<bool>& active_old,
                                     const std::vector<bool>& active_new)
    const {
  const size_t prefix = PrefixAtDelta(delta);
  size_t count = 0;
  for (size_t i = 0; i < prefix; ++i) {
    const ScoredPair& p = scored_pairs_[i];
    if (active_old[p.old_id] && active_new[p.new_id]) ++count;
  }
  return count;
}

double PreMatcher::PairSimilarity(RecordId old_id, RecordId new_id) const {
  TGLINK_DCHECK(old_id < old_dataset_.num_records())
      << "old record " << old_id << " out of range";
  const auto row_first = row_new_.begin() + row_begin_[old_id];
  const auto row_last = row_new_.begin() + row_begin_[old_id + 1];
  const auto it = std::lower_bound(row_first, row_last, new_id);
  if (it != row_last && *it == new_id) {
    return row_sim_[static_cast<size_t>(it - row_new_.begin())];
  }
  TGLINK_COUNTER_INC("simcache.prematch_miss");
  return sim_cache_.Aggregate(old_id, new_id);
}

Clustering PreMatcher::Cluster(double delta,
                               const std::vector<bool>& active_old,
                               const std::vector<bool>& active_new) const {
  TGLINK_TRACE_SPAN("prematch.cluster", delta);
  const size_t n_old = old_dataset_.num_records();
  const size_t n_new = new_dataset_.num_records();
  assert(active_old.size() == n_old && active_new.size() == n_new);

  // Transitive closure over accepted pairs; node space is old records
  // followed by new records. Only the δ prefix of the descending-sim
  // order can contribute unions.
  const size_t prefix = PrefixAtDelta(delta);
  UnionFind uf(n_old + n_new);
  for (size_t i = 0; i < prefix; ++i) {
    const ScoredPair& pair = scored_pairs_[i];
    if (!active_old[pair.old_id] || !active_new[pair.new_id]) continue;
    uf.Union(pair.old_id, n_old + pair.new_id);
  }
  std::vector<uint32_t> labels = uf.ComponentLabels();

  Clustering clustering;
  clustering.old_labels.assign(n_old, Clustering::kNoLabel);
  clustering.new_labels.assign(n_new, Clustering::kNoLabel);
  clustering.num_labels = uf.num_components();
  clustering.label_old_members.resize(clustering.num_labels);
  clustering.label_new_members.resize(clustering.num_labels);
  for (size_t r = 0; r < n_old; ++r) {
    if (!active_old[r]) continue;
    const uint32_t label = labels[r];
    clustering.old_labels[r] = label;
    clustering.label_old_members[label].push_back(static_cast<RecordId>(r));
  }
  for (size_t r = 0; r < n_new; ++r) {
    if (!active_new[r]) continue;
    const uint32_t label = labels[n_old + r];
    clustering.new_labels[r] = label;
    clustering.label_new_members[label].push_back(static_cast<RecordId>(r));
  }
  return clustering;
}

}  // namespace tglink
