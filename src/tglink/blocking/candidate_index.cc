#include "tglink/blocking/candidate_index.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "tglink/blocking/sorted_neighborhood.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/util/logging.h"
#include "tglink/util/parallel.h"

namespace tglink {

std::vector<RecordId> GallopingIntersect(const std::vector<RecordId>& a,
                                         const std::vector<RecordId>& b) {
  TGLINK_DCHECK(std::is_sorted(a.begin(), a.end()))
      << "GallopingIntersect: left posting list not ascending";
  TGLINK_DCHECK(std::is_sorted(b.begin(), b.end()))
      << "GallopingIntersect: right posting list not ascending";
  // Probe from the shorter list into the longer one: double the step until
  // overshooting, then binary-search the bracketed range.
  const std::vector<RecordId>& small = a.size() <= b.size() ? a : b;
  const std::vector<RecordId>& large = a.size() <= b.size() ? b : a;
  std::vector<RecordId> out;
  out.reserve(small.size());
  size_t lo = 0;
  for (RecordId id : small) {
    size_t step = 1;
    size_t hi = lo;
    while (hi < large.size() && large[hi] < id) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    const auto first = large.begin() + static_cast<ptrdiff_t>(lo);
    const auto last =
        large.begin() + static_cast<ptrdiff_t>(std::min(hi + 1, large.size()));
    const auto it = std::lower_bound(first, last, id);
    lo = static_cast<size_t>(it - large.begin());
    if (lo < large.size() && large[lo] == id) out.push_back(id);
  }
  return out;
}

CandidateIndex::CandidateIndex(const CensusDataset& old_dataset,
                               const CensusDataset& new_dataset,
                               BlockingConfig config)
    : config_(std::move(config)),
      old_dataset_(old_dataset),
      new_dataset_(new_dataset) {
  TGLINK_TRACE_SPAN("candindex.build");
  TGLINK_MEM_STAGE("candindex.build");
  const size_t num_old = old_dataset_.num_records();
  const size_t num_new = new_dataset_.num_records();
  old_record_tokens_.resize(num_old);

  std::vector<uint32_t> old_posting_len;  // per token, old-side list length
  // Token interning is per pass: a key string produced by two different
  // passes is two distinct tokens, so each pass keeps its own key space.
  for (const BlockKeyFn& pass : config_.passes) {
    std::unordered_map<std::string, uint32_t> intern;
    // Key computation dominates build cost (soundex + string assembly per
    // record); it is pure per record, so fan it out over the pool.
    std::vector<std::string> old_keys = ParallelMap<std::string>(
        num_old, "candindex.keys",
        [&](size_t r) { return pass(old_dataset_.record(RecordId(r))); });
    std::vector<std::string> new_keys = ParallelMap<std::string>(
        num_new, "candindex.keys",
        [&](size_t r) { return pass(new_dataset_.record(RecordId(r))); });
    for (RecordId r = 0; r < num_old; ++r) {
      std::string& key = old_keys[r];
      if (key.empty()) continue;
      const auto [it, inserted] = intern.try_emplace(
          std::move(key), static_cast<uint32_t>(new_postings_.size()));
      if (inserted) {
        new_postings_.emplace_back();
        old_posting_len.push_back(0);
      }
      old_record_tokens_[r].push_back(it->second);
      ++old_posting_len[it->second];
    }
    for (RecordId r = 0; r < num_new; ++r) {
      std::string& key = new_keys[r];
      if (key.empty()) continue;
      const auto [it, inserted] = intern.try_emplace(
          std::move(key), static_cast<uint32_t>(new_postings_.size()));
      if (inserted) {
        new_postings_.emplace_back();
        old_posting_len.push_back(0);
      }
      new_postings_[it->second].push_back(r);
    }
  }
  token_count_ = new_postings_.size();
  for (size_t t = 0; t < token_count_; ++t) {
    posting_count_ += old_posting_len[t] + new_postings_[t].size();
  }

  // A record may produce the same token through two passes (e.g. identical
  // first name and surname); emission must see each token once.
  for (std::vector<uint32_t>& tokens : old_record_tokens_) {
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  }

  if (config_.max_posting_len > 0) {
    std::vector<bool> pruned(token_count_, false);
    std::vector<bool> fb_new(num_new, false);
    for (size_t t = 0; t < token_count_; ++t) {
      if (old_posting_len[t] + new_postings_[t].size() >
          config_.max_posting_len) {
        pruned[t] = true;
        ++pruned_tokens_;
        for (RecordId r : new_postings_[t]) fb_new[r] = true;
        new_postings_[t].clear();
        new_postings_[t].shrink_to_fit();
      }
    }
    if (pruned_tokens_ > 0) {
      for (RecordId r = 0; r < num_old; ++r) {
        std::vector<uint32_t>& tokens = old_record_tokens_[r];
        const auto dead = std::remove_if(
            tokens.begin(), tokens.end(),
            [&](uint32_t t) { return pruned[t]; });
        if (dead != tokens.end()) {
          tokens.erase(dead, tokens.end());
          fallback_old_.push_back(r);
        }
      }
      for (RecordId r = 0; r < num_new; ++r) {
        if (fb_new[r]) fallback_new_.push_back(r);
      }
    }
  }
  TGLINK_COUNTER_ADD("candindex.postings", posting_count_);
  TGLINK_COUNTER_ADD("candindex.pruned_keys", pruned_tokens_);

  // Logical posting/token footprint (element counts, not capacities) so the
  // figure is deterministic and bench_diff.py can gate it exactly.
  uint64_t index_bytes = 0;
  for (const std::vector<RecordId>& posting : new_postings_) {
    index_bytes += posting.size() * sizeof(RecordId);
  }
  for (const std::vector<uint32_t>& tokens : old_record_tokens_) {
    index_bytes += tokens.size() * sizeof(uint32_t);
  }
  index_bytes += fallback_old_.size() * sizeof(RecordId);
  index_bytes += fallback_new_.size() * sizeof(RecordId);
  obs::ReportArenaBytes("candindex", index_bytes);
}

template <typename Emit>
void CandidateIndex::ForEachCandidate(RecordId old_id,
                                      std::vector<RecordId>* scratch,
                                      Emit&& emit) const {
  const std::vector<uint32_t>& tokens = old_record_tokens_[old_id];
  if (tokens.empty()) return;
  const size_t min_shared = std::max<size_t>(1, config_.min_shared_passes);
  if (min_shared > 1 && tokens.size() < min_shared) return;
  if (min_shared == 1) {
    // The emission hot path. Posting lists are sorted, so the union is a
    // k-pointer merge emitting straight to `emit` — O(total postings),
    // no per-record sort, no scratch buffer. With the default three passes
    // k <= 3.
    constexpr size_t kMaxMergeLists = 8;
    if (tokens.size() == 1) {
      for (RecordId n : new_postings_[tokens[0]]) emit(n);
      return;
    }
    if (tokens.size() <= kMaxMergeLists) {
      const std::vector<RecordId>* lists[kMaxMergeLists];
      size_t idx[kMaxMergeLists];
      const size_t k = tokens.size();
      for (size_t i = 0; i < k; ++i) {
        lists[i] = &new_postings_[tokens[i]];
        idx[i] = 0;
      }
      for (;;) {
        constexpr RecordId kDone = std::numeric_limits<RecordId>::max();
        RecordId min_id = kDone;
        for (size_t i = 0; i < k; ++i) {
          if (idx[i] < lists[i]->size() && (*lists[i])[idx[i]] < min_id) {
            min_id = (*lists[i])[idx[i]];
          }
        }
        if (min_id == kDone) break;
        emit(min_id);
        for (size_t i = 0; i < k; ++i) {
          if (idx[i] < lists[i]->size() && (*lists[i])[idx[i]] == min_id) {
            ++idx[i];
          }
        }
      }
      return;
    }
  }
  scratch->clear();
  if (min_shared == 2 && tokens.size() == 2) {
    // The common conjunctive case: one galloping intersection, no sort.
    *scratch = GallopingIntersect(new_postings_[tokens[0]],
                                  new_postings_[tokens[1]]);
  } else {
    for (uint32_t t : tokens) {
      const std::vector<RecordId>& posting = new_postings_[t];
      scratch->insert(scratch->end(), posting.begin(), posting.end());
    }
    std::sort(scratch->begin(), scratch->end());
    if (min_shared == 1) {
      scratch->erase(std::unique(scratch->begin(), scratch->end()),
                     scratch->end());
    } else {
      // Keep ids occurring in >= min_shared distinct posting lists (tokens
      // are distinct per record, so run length == shared-token count).
      size_t kept = 0;
      for (size_t i = 0; i < scratch->size();) {
        size_t j = i;
        while (j < scratch->size() && (*scratch)[j] == (*scratch)[i]) ++j;
        if (j - i >= min_shared) (*scratch)[kept++] = (*scratch)[i];
        i = j;
      }
      scratch->resize(kept);
    }
  }
  for (RecordId n : *scratch) emit(n);
}

std::vector<CandidatePair> CandidateIndex::FallbackPairs() const {
  if (config_.fallback_window == 0 ||
      (fallback_old_.empty() && fallback_new_.empty())) {
    return {};
  }
  // The recall net for pairs that lived exclusively in pruned blocks:
  // sorted-neighborhood over only the flagged records.
  SortedNeighborhoodConfig snm = SortedNeighborhoodConfig::MakeDefault();
  snm.window = config_.fallback_window;
  return SortedNeighborhoodPairs(old_dataset_, fallback_old_, new_dataset_,
                                 fallback_new_, snm);
}

namespace {

/// Old records per emission shard: the unit of pool work in GeneratePairs.
constexpr size_t kShardRecords = 2048;

}  // namespace

// Concurrency contract: the posting lists are frozen after single-threaded
// construction, and every pool task writes only its own slot of `offsets`
// or its own shard's disjoint range of `pairs`. There is deliberately no
// lock here; determinism comes from the fixed shard boundaries.
std::vector<CandidatePair> CandidateIndex::GeneratePairs() const {
  TGLINK_TRACE_SPAN("candindex.emit");
  const size_t num_old = old_dataset_.num_records();
  const size_t num_shards = (num_old + kShardRecords - 1) / kShardRecords;
  const auto shard_end = [num_old](size_t s) {
    return std::min(num_old, (s + 1) * kShardRecords);
  };
  // Count, then fill. Each shard counts its pairs on the pool; the counts
  // become offsets into one vector allocated here, on the calling thread;
  // each shard then writes its already-sorted slice of the (old, new) pair
  // space into its own range. No worker grows a vector of its own, so no
  // pair storage is left behind in a worker's malloc arena.
  std::vector<size_t> offsets =
      ParallelMap<size_t>(num_shards, "candindex.count", [&](size_t s) {
        std::vector<RecordId> scratch;
        size_t count = 0;
        for (size_t r = s * kShardRecords; r < shard_end(s); ++r) {
          ForEachCandidate(static_cast<RecordId>(r), &scratch,
                           [&count](RecordId) { ++count; });
        }
        return count;
      });
  size_t total = 0;
  for (size_t& offset : offsets) {
    const size_t count = offset;
    offset = total;
    total += count;
  }
  std::vector<CandidatePair> pairs(total);
  ParallelFor(num_shards, "candindex.fill", [&](size_t begin, size_t end) {
    std::vector<RecordId> scratch;
    for (size_t s = begin; s < end; ++s) {
      CandidatePair* out = pairs.data() + offsets[s];
      for (size_t r = s * kShardRecords; r < shard_end(s); ++r) {
        const RecordId old_id = static_cast<RecordId>(r);
        ForEachCandidate(old_id, &scratch, [&out, old_id](RecordId n) {
          *out++ = {old_id, n};
        });
      }
      TGLINK_DCHECK(out == pairs.data() +
                               (s + 1 < num_shards ? offsets[s + 1] : total))
          << "candidate shard " << s << " filled a different count";
    }
  });
  const std::vector<CandidatePair> fallback = FallbackPairs();
  if (!fallback.empty()) pairs = UnionCandidatePairs(pairs, fallback);
  return pairs;
}

}  // namespace tglink
