#include "tglink/blocking/sorted_neighborhood.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string>

#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/util/logging.h"

namespace tglink {

BlockKeyFn SurnameFirstNameSortKey() {
  return [](const PersonRecord& r) -> std::string {
    if (r.surname.empty() && r.first_name.empty()) return "";
    return r.surname + " " + r.first_name;
  };
}

SortedNeighborhoodConfig SortedNeighborhoodConfig::MakeDefault() {
  SortedNeighborhoodConfig config;
  config.key = SurnameFirstNameSortKey();
  return config;
}

std::vector<CandidatePair> SortedNeighborhoodPairs(
    const CensusDataset& old_dataset, const std::vector<RecordId>& old_ids,
    const CensusDataset& new_dataset, const std::vector<RecordId>& new_ids,
    const SortedNeighborhoodConfig& config) {
  struct Entry {
    std::string key;
    RecordId id;
    bool is_old;
  };
  std::vector<Entry> entries;
  entries.reserve(old_ids.size() + new_ids.size());
  for (RecordId r : old_ids) {
    std::string key = config.key(old_dataset.record(r));
    if (!key.empty()) entries.push_back({std::move(key), r, true});
  }
  for (RecordId r : new_ids) {
    std::string key = config.key(new_dataset.record(r));
    if (!key.empty()) entries.push_back({std::move(key), r, false});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.is_old != b.is_old) return a.is_old;
              return a.id < b.id;
            });

  std::vector<CandidatePair> pairs;
  const size_t w = std::max<size_t>(2, config.window);
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size() && j < i + w; ++j) {
      if (entries[i].is_old == entries[j].is_old) continue;
      const RecordId o = entries[i].is_old ? entries[i].id : entries[j].id;
      const RecordId n = entries[i].is_old ? entries[j].id : entries[i].id;
      pairs.push_back({o, n});
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

std::vector<CandidatePair> SortedNeighborhoodPairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const SortedNeighborhoodConfig& config) {
  TGLINK_TRACE_SPAN("blocking.sorted_neighborhood");
  std::vector<RecordId> old_ids(old_dataset.num_records());
  std::vector<RecordId> new_ids(new_dataset.num_records());
  std::iota(old_ids.begin(), old_ids.end(), RecordId{0});
  std::iota(new_ids.begin(), new_ids.end(), RecordId{0});
  std::vector<CandidatePair> pairs = SortedNeighborhoodPairs(
      old_dataset, old_ids, new_dataset, new_ids, config);
  TGLINK_COUNTER_ADD("blocking.snm_candidate_pairs", pairs.size());
  return pairs;
}

std::vector<CandidatePair> UnionCandidatePairs(
    const std::vector<CandidatePair>& a, const std::vector<CandidatePair>& b) {
  TGLINK_DCHECK(std::is_sorted(a.begin(), a.end()))
      << "UnionCandidatePairs: left input not sorted";
  TGLINK_DCHECK(std::is_sorted(b.begin(), b.end()))
      << "UnionCandidatePairs: right input not sorted";
  std::vector<CandidatePair> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace tglink
