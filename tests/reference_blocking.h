// Textbook multi-pass hash blocking — the oracle the library's inverted
// candidate index (src/tglink/blocking/candidate_index.h) is checked
// against pair for pair. Per pass, records are grouped into blocks by key;
// every old×new pair inside a block is a candidate; the union over passes
// is sorted and deduplicated at the end. Written for obviousness, not
// speed.
//
// Test-only: linked into the suites that compare against it, never into
// the library.

#ifndef TGLINK_TESTS_REFERENCE_BLOCKING_H_
#define TGLINK_TESTS_REFERENCE_BLOCKING_H_

#include <cstddef>
#include <vector>

#include "tglink/blocking/block_key.h"
#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"

namespace tglink {
namespace reference {

/// Candidate pairs of multi-pass hash blocking over `passes`, sorted by
/// (old_id, new_id) and deduplicated. Records with an empty key sit out a
/// pass. A block holding more than `max_block_size` records (old side +
/// new side) is skipped; 0 disables the cap.
[[nodiscard]] std::vector<CandidatePair> HashBlockingPairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const std::vector<BlockKeyFn>& passes, size_t max_block_size = 0);

/// Every old×new pair, in (old_id, new_id) order.
[[nodiscard]] std::vector<CandidatePair> CrossProductPairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset);

}  // namespace reference
}  // namespace tglink

#endif  // TGLINK_TESTS_REFERENCE_BLOCKING_H_
