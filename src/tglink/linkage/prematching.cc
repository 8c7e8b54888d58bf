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
  // rows in order: count the kept pairs to size the store exactly, then
  // count each row's pairs and prefix-sum the counts into row offsets.
  const size_t num_kept = static_cast<size_t>(std::count_if(
      sims.begin(), sims.end(),
      [min_threshold](double sim) { return sim >= min_threshold; }));
  row_begin_.assign(old_dataset.num_records() + 1, 0);
  row_new_.reserve(num_kept);
  row_sim_.reserve(num_kept);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double sim = sims[i];
    if (sim >= min_threshold) {
      const CandidatePair& cand = candidates[i];
      TGLINK_DCHECK(i == 0 || candidates[i - 1].old_id < cand.old_id ||
                    (candidates[i - 1].old_id == cand.old_id &&
                     candidates[i - 1].new_id < cand.new_id))
          << "candidates not sorted by (old, new) at index " << i;
      TGLINK_HISTOGRAM_SCORE("prematch.kept_pair_sim", sim);
      ++row_begin_[cand.old_id + 1];
      row_new_.push_back(cand.new_id);
      row_sim_.push_back(sim);
    }
  }
  std::partial_sum(row_begin_.begin(), row_begin_.end(), row_begin_.begin());
  TGLINK_COUNTER_ADD("prematch.pairs_scored", candidates.size());
  TGLINK_COUNTER_ADD("prematch.pairs_kept", num_kept);
}

template <typename Fn>
void PreMatcher::ForEachAdmissiblePair(double delta,
                                       const std::vector<bool>& active_old,
                                       const std::vector<bool>& active_new,
                                       Fn&& fn) const {
  for (RecordId o = 0; o + 1 < row_begin_.size(); ++o) {
    if (!active_old[o]) continue;
    for (size_t k = row_begin_[o]; k < row_begin_[o + 1]; ++k) {
      if (row_sim_[k] + 1e-12 >= delta && active_new[row_new_[k]]) {
        fn(o, row_new_[k]);
      }
    }
  }
}

size_t PreMatcher::CountPairsAtDelta(double delta,
                                     const std::vector<bool>& active_old,
                                     const std::vector<bool>& active_new)
    const {
  size_t count = 0;
  ForEachAdmissiblePair(delta, active_old, active_new,
                        [&count](RecordId, RecordId) { ++count; });
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
  // followed by new records. ComponentLabels numbers components by their
  // lowest node, so the labels do not depend on the order of the unions.
  UnionFind uf(n_old + n_new);
  ForEachAdmissiblePair(delta, active_old, active_new,
                        [&uf, n_old](RecordId o, RecordId n) {
                          uf.Union(o, n_old + n);
                        });
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
