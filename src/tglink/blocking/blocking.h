// Candidate-pair generation between two census snapshots.
//
// The paper compares R_i × R_{i+1} exhaustively; at 30k × 30k records that
// is ~10^9 similarity computations per iteration. Multi-pass blocking keeps
// the semantics (the union of passes is a superset of every pair a sensible
// δ would accept — verified empirically in tests/blocking_test.cc) while
// reducing the candidate set by 3-4 orders of magnitude. Every config is
// served by one implementation, the inverted candidate index
// (blocking/candidate_index.h). MakeExhaustive() reproduces the paper's
// cross product exactly as a single pass with a constant key, and is used
// on small inputs.

#ifndef TGLINK_BLOCKING_BLOCKING_H_
#define TGLINK_BLOCKING_BLOCKING_H_

#include <cstddef>
#include <vector>

#include "tglink/blocking/block_key.h"
#include "tglink/census/dataset.h"

namespace tglink {

struct CandidatePair {
  RecordId old_id;
  RecordId new_id;

  /// Lexicographic (old_id, new_id): the order every generator emits in.
  friend bool operator<(const CandidatePair& a, const CandidatePair& b) {
    return a.old_id != b.old_id ? a.old_id < b.old_id : a.new_id < b.new_id;
  }
  friend bool operator==(const CandidatePair& a, const CandidatePair& b) {
    return a.old_id == b.old_id && a.new_id == b.new_id;
  }
};

struct BlockingConfig {
  /// Key functions; a pair is a candidate if it shares a key in at least
  /// one pass. MakeDefault sets the three phonetic-name passes.
  std::vector<BlockKeyFn> passes;

  /// Keys whose records number more than this (old side + new side) are
  /// pruned, and their records routed to a sorted-neighborhood fallback;
  /// 0 disables pruning.
  size_t max_posting_len = 0;

  /// Window of the sorted-neighborhood fallback over records that carried
  /// a pruned key; 0 disables the fallback.
  size_t fallback_window = 8;

  /// Minimum number of distinct blocking keys a pair must share (1 = plain
  /// union; >= 2 = conjunctive galloping-intersect refinement, a precision
  /// knob).
  size_t min_shared_passes = 1;

  static BlockingConfig MakeDefault();
  static BlockingConfig MakeExhaustive();
};

/// Generates deduplicated candidate pairs, sorted by (old_id, new_id).
[[nodiscard]] std::vector<CandidatePair> GenerateCandidatePairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const BlockingConfig& config);

}  // namespace tglink

#endif  // TGLINK_BLOCKING_BLOCKING_H_
