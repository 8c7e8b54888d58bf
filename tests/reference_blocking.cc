#include "tests/reference_blocking.h"

#include <algorithm>
#include <map>
#include <string>

namespace tglink {
namespace reference {
namespace {

struct Block {
  std::vector<RecordId> old_ids;
  std::vector<RecordId> new_ids;
};

void RunPass(const CensusDataset& old_dataset, const CensusDataset& new_dataset,
             const BlockKeyFn& key_fn, size_t max_block_size,
             std::vector<CandidatePair>* pairs) {
  std::map<std::string, Block> blocks;
  for (RecordId r = 0; r < old_dataset.num_records(); ++r) {
    std::string key = key_fn(old_dataset.record(r));
    if (!key.empty()) blocks[std::move(key)].old_ids.push_back(r);
  }
  for (RecordId r = 0; r < new_dataset.num_records(); ++r) {
    std::string key = key_fn(new_dataset.record(r));
    if (!key.empty()) blocks[std::move(key)].new_ids.push_back(r);
  }
  for (const auto& [key, block] : blocks) {
    if (max_block_size > 0 &&
        block.old_ids.size() + block.new_ids.size() > max_block_size) {
      continue;
    }
    for (RecordId o : block.old_ids) {
      for (RecordId n : block.new_ids) pairs->push_back({o, n});
    }
  }
}

}  // namespace

std::vector<CandidatePair> HashBlockingPairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const std::vector<BlockKeyFn>& passes, size_t max_block_size) {
  std::vector<CandidatePair> pairs;
  for (const BlockKeyFn& pass : passes) {
    RunPass(old_dataset, new_dataset, pass, max_block_size, &pairs);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

std::vector<CandidatePair> CrossProductPairs(const CensusDataset& old_dataset,
                                             const CensusDataset& new_dataset) {
  std::vector<CandidatePair> pairs;
  for (RecordId o = 0; o < old_dataset.num_records(); ++o) {
    for (RecordId n = 0; n < new_dataset.num_records(); ++n) {
      pairs.push_back({o, n});
    }
  }
  return pairs;
}

}  // namespace reference
}  // namespace tglink
