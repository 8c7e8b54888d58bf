// Similarity evaluation for the pre-matching hot path. Aggregate and
// AggregateWithThreshold score record pairs through SimBatch (sim_batch.h):
// components with an allocation-free kernel (exact, q-gram Dice, the
// edit/Jaro family, Soundex) run directly against its interned arena and
// precomputed profiles — cheap enough that a memo lookup would cost more
// than the kernel. Only the measures without a kernel (Monge-Elkan,
// double-metaphone, Smith-Waterman, LCS) go through the sharded memo here,
// keyed on the interned (value, value) id pair, with ComputeMeasure filling
// misses. Census name pools are heavily skewed (the paper's Table 1: a few
// thousand distinct values over tens of thousands of records), so repeated
// comparisons of those heavyweight measures hit a hash lookup.
// Aggregation runs through SimilarityFunction::AggregateWith, so
// Aggregate(o, n) is bit-identical to
// fn.AggregateSimilarity(old.record(o), new.record(n)).
// AggregateWithThreshold additionally applies SimBatch's bound-pruning
// screen and returns kPruned for pairs provably below the cutoff.
//
// Correctness: memoized values are exact ComputeMeasure results — pure
// functions of the two strings, independent of any threshold — so results
// do not depend on thread count, lookup order, or the min_sim a pair was
// first scored with.
//
// Thread safety: construction is single-threaded; Aggregate and
// AggregateWithThreshold are safe to call concurrently from pool workers
// (shared locks on memo hit, one exclusive insert per distinct value pair).
// Memo traffic reports to the "simcache.hits" / "simcache.misses" counters.

#ifndef TGLINK_SIMILARITY_SIM_CACHE_H_
#define TGLINK_SIMILARITY_SIM_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tglink/census/dataset.h"
#include "tglink/similarity/composite.h"
#include "tglink/similarity/sim_batch.h"
#include "tglink/util/thread_annotations.h"

namespace tglink {

class SimCache {
 public:
  /// Sentinel returned by AggregateWithThreshold for pairs provably below
  /// min_sim; real aggregates are in [0, 1].
  static constexpr double kPruned = SimBatch::kPruned;

  /// Interns the field values of every component of `fn` over both
  /// datasets. All three arguments must outlive the cache.
  SimCache(const SimilarityFunction& fn, const CensusDataset& old_dataset,
           const CensusDataset& new_dataset);

  /// Reports the memo's final logical footprint to the "simcache" arena
  /// (obs/memprof.h) — the entry counts are deterministic, the destructor
  /// is the one point where they are final.
  ~SimCache();

  SimCache(const SimCache&) = delete;
  SimCache& operator=(const SimCache&) = delete;

  /// Exact agg_sim; bit-identical to
  /// fn.AggregateSimilarity(old.record(old_id), new.record(new_id)).
  [[nodiscard]] double Aggregate(RecordId old_id, RecordId new_id) const;

  /// Exact agg_sim, or kPruned when the kernel bounds prove it is below
  /// min_sim. Callers keeping pairs with sim >= min_sim can treat kPruned
  /// as any below-threshold value; the keep-set equals the exact one.
  /// min_sim <= 0 always returns the exact aggregate.
  [[nodiscard]] double AggregateWithThreshold(RecordId old_id,
                                              RecordId new_id,
                                              double min_sim) const;

  [[nodiscard]] const SimilarityFunction& fn() const { return fn_; }

  /// Memo lookup statistics for this cache instance (the global
  /// "simcache.*" counters aggregate across instances). Only components
  /// without a kernel generate memo traffic.
  [[nodiscard]] uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  // 16 shards keep exclusive inserts from serializing concurrent scoring;
  // the tables are read-mostly once the distinct value pairs are seen.
  static constexpr size_t kNumShards = 16;

  struct Shard {
    mutable SharedMutex mu;
    // Key: (old value id << 32) | new value id. Never iterated — lookup
    // only — so the unordered layout cannot leak into any output order.
    std::unordered_map<uint64_t, double> memo TGLINK_GUARDED_BY(mu);
  };

  /// Memo state of one component of fn.specs(); `shards` is allocated
  /// exactly for the components SimBatch scores through its fallback and
  /// null for the rest.
  struct SpecCache {
    std::unique_ptr<Shard[]> shards;
  };

  static size_t ShardIndex(uint64_t key) {
    key ^= key >> 33;
    key *= 0xFF51AFD7ED558CCDULL;
    key ^= key >> 33;
    return static_cast<size_t>(key) & (kNumShards - 1);
  }

  /// ComputeMeasure of spec i on two interned values, through the memo.
  [[nodiscard]] double MemoizedMeasure(size_t spec_index, uint32_t old_vid,
                                       uint32_t new_vid, std::string_view a,
                                       std::string_view b) const;

  const SimilarityFunction& fn_;
  SimBatch batch_;
  std::vector<SpecCache> spec_caches_;  // parallel to fn.specs()
  SimBatch::FallbackFn fallback_;       // routes into MemoizedMeasure
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_SIM_CACHE_H_
