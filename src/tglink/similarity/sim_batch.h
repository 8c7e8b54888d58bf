// SimBatch — the one way the library scores record pairs in bulk.
//
// Per field referenced by a SimilarityFunction, SimBatch interns the values
// of both snapshots into a contiguous arena (offset+length StringRef views,
// precomputed padded q-gram profiles and packed Soundex signatures), then
// evaluates whole-pair aggregate similarities by dispatching each component
// to an allocation-free kernel (batch_kernels.h) that reads those flat
// tables. The kernels are the same ones ComputeMeasure runs on plain
// strings, and aggregation runs through SimilarityFunction::AggregateWith,
// so AggregateWithThreshold(o, n, 0.0) is bit-identical to
// fn.AggregateSimilarity(old.record(o), new.record(n)).
//
// Threshold-aware pruning (AggregateWithThreshold): before any kernel runs,
// an O(1) per-pair screen combines the per-component upper bounds (length
// difference, gram-profile counts, interned-id equality for exact/Soundex
// components, the exact age similarity) through the Eq. 3 weights: if even
// the optimistic aggregate cannot reach min_sim, the pair is rejected
// without touching a single string ("simkernel.pruned_by_length" /
// "simkernel.pruned_by_profile"). Pairs surviving the screen are evaluated
// component by component with a running cutoff — the minimum value
// component i must reach given the exact sum so far and the bounds of the
// remaining components — passed down as each kernel's min_sim, so a kernel
// can still bail in O(1) mid-aggregate ("simkernel.pruned_by_cutoff").
// Every rejection is sound: pruned ⇒ the exact aggregate is < min_sim
// (the property tests pin this), so callers that keep pairs with
// sim >= min_sim see exactly the unpruned keep-set.
//
// Every AggregateWithThreshold call counts once towards
// "similarity.agg_calls", as AggregateSimilarity does; each field table
// adds its distinct values to "simcache.interned_values".
//
// Thread safety: construction is single-threaded; AggregateWithThreshold
// is lock-free over immutable tables (plus thread-local scratch) and safe
// to call concurrently from pool workers.

#ifndef TGLINK_SIMILARITY_SIM_BATCH_H_
#define TGLINK_SIMILARITY_SIM_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tglink/census/dataset.h"
#include "tglink/similarity/batch_kernels.h"
#include "tglink/similarity/composite.h"

namespace tglink {

class SimBatch {
 public:
  /// "Provably below min_sim" sentinel returned by AggregateWithThreshold;
  /// real aggregates are in [0, 1].
  static constexpr double kPruned = simkernel::kBelowMinSim;

  /// Interns every string field referenced by `fn` over both datasets and
  /// precomputes the per-value signatures the kernels need. All arguments
  /// must outlive the batch.
  SimBatch(const SimilarityFunction& fn, const CensusDataset& old_dataset,
           const CensusDataset& new_dataset);

  SimBatch(const SimBatch&) = delete;
  SimBatch& operator=(const SimBatch&) = delete;

  /// Exact aggregate, or kPruned when the bounds prove it is < min_sim.
  /// min_sim <= 0 disables pruning: the result is then bit-identical to
  /// fn.AggregateSimilarity(old.record(o), new.record(n)).
  [[nodiscard]] double AggregateWithThreshold(RecordId old_id,
                                              RecordId new_id,
                                              double min_sim) const;

  /// Total distinct values interned across all field tables.
  [[nodiscard]] size_t num_interned_values() const;

 private:
  /// How one component of fn.specs() is evaluated.
  enum class Plan : uint8_t {
    kAge,        // TemporalAgeSimilarity on record ints
    kExactId,    // interned-id equality
    kGram2Dice,  // precomputed padded bigram profiles
    kGram3Dice,  // precomputed padded trigram profiles
    kLevenshtein,
    kDamerau,
    kJaro,
    kJaroWinkler,
    kSoundex,    // packed precomputed Soundex codes
  };

  struct SpecPlan {
    Plan plan = Plan::kAge;
    int table = -1;  // index into tables_; -1 for age components
  };

  /// One field's interned values over both snapshots: a contiguous arena
  /// plus flat per-value signature arrays.
  struct FieldTable {
    std::string arena;
    std::vector<uint32_t> offsets;  // per value id, size num_values()+1
    std::vector<uint32_t> old_ids;  // per old record
    std::vector<uint32_t> new_ids;  // per new record
    // Sorted packed gram profiles, concatenated; gramN_starts has
    // num_values()+1 entries. Built only when a spec on this field needs
    // them; same for soundex_codes.
    std::vector<uint32_t> gram2_data;
    std::vector<uint32_t> gram2_starts;
    std::vector<uint32_t> gram3_data;
    std::vector<uint32_t> gram3_starts;
    std::vector<uint64_t> soundex_codes;

    [[nodiscard]] size_t num_values() const { return offsets.size() - 1; }
    [[nodiscard]] simkernel::StringRef Ref(uint32_t vid) const {
      return {arena.data() + offsets[vid], offsets[vid + 1] - offsets[vid]};
    }
    /// Missing ⟺ empty holds for every non-age field (sex renders
    /// kUnknown as ""), so the arena length doubles as the missing flag.
    [[nodiscard]] bool Missing(uint32_t vid) const {
      return offsets[vid + 1] == offsets[vid];
    }
  };

  /// The kernel plan of a non-age component scored with `measure`.
  static Plan KernelPlan(Measure measure);

  int BuildFieldTable(Field field);

  /// The exact aggregate, without counting the call.
  [[nodiscard]] double ExactAggregate(RecordId old_id, RecordId new_id) const;

  /// Value of present (both-non-missing) component i; kernel_min > 0 may
  /// yield simkernel::kBelowMinSim.
  [[nodiscard]] double PresentValue(size_t spec_index, uint32_t va,
                                    uint32_t vb, const PersonRecord& ra,
                                    const PersonRecord& rb,
                                    double kernel_min) const;

  const SimilarityFunction& fn_;
  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;
  std::vector<FieldTable> tables_;
  std::vector<SpecPlan> plans_;  // parallel to fn.specs()
  int field_table_[6] = {-1, -1, -1, -1, -1, -1};  // Field -> tables_ index
};

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_SIM_BATCH_H_
