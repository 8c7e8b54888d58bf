// Inverted-index candidate generation — the one implementation behind
// GenerateCandidatePairs: blocking-key tokens (phonetic name codes, or any
// BlockKeyFn) map to sorted posting lists of record ids. Candidate pairs
// for an old record are the multi-key union of the new-side posting lists
// of its tokens — emitted per record already sorted by (old_id, new_id), so
// no global sort-and-unique pass is needed.
//
//   * tokens are interned once (string -> dense token id); pair emission
//     walks integer posting lists only,
//   * emission is sharded over old records and runs on the shared pool
//     (util/parallel.h): each shard counts its pairs, the counts are
//     prefix-summed into offsets, and each shard then fills its own
//     disjoint range of one output vector allocated on the calling thread —
//     deterministic for every thread count,
//   * pathological keys (posting list longer than `max_posting_len`) are
//     pruned instead of exploding quadratically; records that carried a
//     pruned key are routed through a sorted-neighborhood fallback window
//     so true matches inside giant blocks are still reachable.
//
// Equivalence guarantee (verified by tests/candidate_index_property_test
// against the hash-blocking oracle in tests/reference_blocking.h): with
// pruning disabled and `min_shared_passes == 1`, GeneratePairs() emits
// exactly the pairs that share a key in at least one pass. See DESIGN.md §9.

#ifndef TGLINK_BLOCKING_CANDIDATE_INDEX_H_
#define TGLINK_BLOCKING_CANDIDATE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"

namespace tglink {

/// Galloping (exponential-probe) intersection of two ascending id lists.
/// O(min * log(max/min)) — the right shape when one posting list is much
/// shorter than the other. Exposed for tests and reuse.
[[nodiscard]] std::vector<RecordId> GallopingIntersect(
    const std::vector<RecordId>& a, const std::vector<RecordId>& b);

class CandidateIndex {
 public:
  /// Builds the token table and posting lists for both snapshots. The
  /// datasets must outlive the index.
  CandidateIndex(const CensusDataset& old_dataset,
                 const CensusDataset& new_dataset, BlockingConfig config);

  /// All candidate pairs — index pairs unioned with the fallback pairs —
  /// deduplicated and sorted by (old_id, new_id).
  [[nodiscard]] std::vector<CandidatePair> GeneratePairs() const;

  /// Distinct (pass, key) tokens indexed.
  [[nodiscard]] size_t num_tokens() const { return token_count_; }
  /// Total posting-list entries across both sides.
  [[nodiscard]] size_t num_postings() const { return posting_count_; }
  /// Tokens pruned for exceeding max_posting_len.
  [[nodiscard]] size_t num_pruned_tokens() const { return pruned_tokens_; }

 private:
  /// Calls `emit(new_id)` for each new-side candidate of one old record,
  /// ascending (union or >=k-shared filter over its tokens' posting lists).
  template <typename Emit>
  void ForEachCandidate(RecordId old_id, std::vector<RecordId>* scratch,
                        Emit&& emit) const;

  /// Sorted-neighborhood pairs over the records flagged during pruning.
  [[nodiscard]] std::vector<CandidatePair> FallbackPairs() const;

  BlockingConfig config_;
  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;

  /// Per old record: the distinct token ids it carries (ascending).
  std::vector<std::vector<uint32_t>> old_record_tokens_;
  /// Per token id: ascending new-side record ids.
  std::vector<std::vector<RecordId>> new_postings_;

  /// Records that carried a pruned token, per side (ascending ids).
  std::vector<RecordId> fallback_old_;
  std::vector<RecordId> fallback_new_;

  size_t token_count_ = 0;
  size_t posting_count_ = 0;
  size_t pruned_tokens_ = 0;
};

}  // namespace tglink

#endif  // TGLINK_BLOCKING_CANDIDATE_INDEX_H_
