#include "tglink/blocking/blocking.h"

#include <cstdint>
#include <string>

#include "tglink/blocking/candidate_index.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"

namespace tglink {

BlockingConfig BlockingConfig::MakeDefault() {
  BlockingConfig config;
  config.passes = {SoundexSurnameFirstInitial(),
                   SoundexFirstNameSurnameInitial(), SoundexFirstNameSex()};
  return config;
}

BlockingConfig BlockingConfig::MakeExhaustive() {
  // One key shared by every record, names or not: the index then emits
  // exactly the cross product.
  BlockingConfig config;
  config.passes = {[](const PersonRecord&) { return std::string("*"); }};
  return config;
}

std::vector<CandidatePair> GenerateCandidatePairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const BlockingConfig& config) {
  TGLINK_TRACE_SPAN("blocking.generate_candidates");
  TGLINK_MEM_STAGE("blocking.generate_candidates");
  const CandidateIndex index(old_dataset, new_dataset, config);
  std::vector<CandidatePair> pairs = index.GeneratePairs();
  // Candidate-pair reduction: cross_product_pairs / candidate_pairs is the
  // reduction ratio blocking buys over the paper's exhaustive comparison.
  TGLINK_COUNTER_ADD("blocking.cross_product_pairs",
                     static_cast<uint64_t>(old_dataset.num_records()) *
                         new_dataset.num_records());
  TGLINK_COUNTER_ADD("blocking.candidate_pairs", pairs.size());
  return pairs;
}

}  // namespace tglink
