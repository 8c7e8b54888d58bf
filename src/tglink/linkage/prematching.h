// Pre-matching (Section 3.2): scores candidate record pairs with the
// composite similarity function, then clusters records whose similarity
// exceeds the current threshold δ via transitive closure, assigning the
// cluster labels that drive subgraph matching.
//
// Because attribute similarities do not change across the iterations of
// Algorithm 1 (only δ and the set of still-unmatched records do), PreMatcher
// scores each candidate pair exactly once — at the lowest threshold the
// schedule will ever use — and each iteration's clustering is a cheap filter
// over the cached scores. Scoring fans out over the shared thread pool
// (util/parallel.h) through one SimBatch with an ordered merge, so the
// output is bit-identical to a serial run.
//
// The kept pairs are held once, in a CSR layout over old records: row o
// lists the new ids of o's kept pairs in ascending order, with a parallel
// similarity array. Blocking emits candidates sorted by (old, new), so the
// rows fill in candidate order with no sort. One test admits a kept pair
// at δ (ForEachAdmissibleInRow): admissible kept pairs between active
// records join labels in Cluster and are the only subgraph vertices. The
// union-find numbers components by their lowest node index, so labels do
// not depend on the order of the unions. The store is immutable after
// construction, so concurrent reads need no lock.

#ifndef TGLINK_LINKAGE_PREMATCHING_H_
#define TGLINK_LINKAGE_PREMATCHING_H_

#include <cstddef>
#include <vector>

#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"
#include "tglink/similarity/composite.h"

namespace tglink {

struct ScoredPair {
  RecordId old_id;
  RecordId new_id;
  double sim;
};

/// The result of one clustering round: per-record cluster labels over both
/// snapshots. Records marked inactive (already matched in an earlier
/// iteration) carry kNoLabel and are not counted in any label's size.
struct Clustering {
  static constexpr uint32_t kNoLabel = UINT32_MAX;

  std::vector<uint32_t> old_labels;  // per old record
  std::vector<uint32_t> new_labels;  // per new record
  size_t num_labels = 0;
  /// Active records (both snapshots) per label. Indexed by label.
  std::vector<uint32_t> label_sizes;

  /// |label(r)| of Eq. 7: number of active records (both snapshots) that
  /// carry this label.
  size_t LabelSize(uint32_t label) const { return label_sizes[label]; }
};

class PreMatcher {
 public:
  /// Scores all blocking candidates once (in parallel over the shared
  /// pool); pairs below `min_threshold` (normally δ_low) are discarded.
  /// The datasets must outlive the PreMatcher.
  PreMatcher(const CensusDataset& old_dataset, const CensusDataset& new_dataset,
             const SimilarityFunction& sim_func, const BlockingConfig& blocking,
             double min_threshold);

  /// Number of kept pairs: blocking candidates with sim >= min_threshold.
  [[nodiscard]] size_t num_kept_pairs() const { return row_new_.size(); }

  /// Calls `fn(const ScoredPair&)` on every kept pair, in ascending
  /// (old, new) order.
  template <typename Fn>
  void ForEachKeptPair(Fn&& fn) const {
    for (RecordId o = 0; o + 1 < row_begin_.size(); ++o) {
      for (size_t k = row_begin_[o]; k < row_begin_[o + 1]; ++k) {
        fn(ScoredPair{o, row_new_[k], row_sim_[k]});
      }
    }
  }

  /// Pairs admissible at `delta` between still-active records — the
  /// per-iteration "scored pairs" diagnostic. Scans the rows of active old
  /// records.
  [[nodiscard]] size_t CountPairsAtDelta(
      double delta, const std::vector<bool>& active_old,
      const std::vector<bool>& active_new) const;

  /// Calls `fn(new_id, sim)` on every kept pair (old_id, new_id) with
  /// sim + 1e-12 >= delta, in ascending new id: the one admission test.
  template <typename Fn>
  void ForEachAdmissibleInRow(RecordId old_id, double delta, Fn&& fn) const {
    for (size_t k = row_begin_[old_id]; k < row_begin_[old_id + 1]; ++k) {
      if (row_sim_[k] + 1e-12 >= delta) fn(row_new_[k], row_sim_[k]);
    }
  }

  /// Clusters active records using pairs with sim >= delta (the
  /// `prematching` step of one Algorithm 1 iteration). `active_*[r]` is
  /// false for records already matched.
  Clustering Cluster(double delta, const std::vector<bool>& active_old,
                     const std::vector<bool>& active_new) const;

 private:
  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;
  // CSR kept-pair store: old record o's kept pairs are
  // (o, row_new_[k]) with similarity row_sim_[k], for k in
  // [row_begin_[o], row_begin_[o + 1]), new ids ascending.
  std::vector<size_t> row_begin_;  // num old records + 1
  std::vector<RecordId> row_new_;
  std::vector<double> row_sim_;
};

}  // namespace tglink

#endif  // TGLINK_LINKAGE_PREMATCHING_H_
