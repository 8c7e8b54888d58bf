#include "tglink/similarity/sim_batch.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/similarity/numeric.h"
#include "tglink/similarity/phonetic.h"
#include "tglink/util/logging.h"

namespace tglink {

namespace {

/// Per-thread pair-evaluation scratch for AggregateWithThreshold, sized to
/// the spec count once and reused — no per-pair heap work.
struct SpecState {
  double contrib_ub = 0.0;  // this spec's weighted contribution bound
  double value = 0.0;       // exact value when `known`
  uint32_t va = 0;
  uint32_t vb = 0;
  bool present = false;
  bool known = false;
  bool missing_one = false;
  bool missing_both = false;
};

struct PairScratch {
  std::vector<SpecState> state;
  std::vector<double> rem_after;  // suffix sums of contrib_ub
};

// Concurrency contract: the scratch is thread-owned, never shared — each
// pool worker mutates only its own copy, so no capability annotation
// applies (thread_local IS the discipline). The batch tables it reads are
// frozen after single-threaded construction; any future mutable sharing
// here must move behind an annotated lock from util/thread_annotations.h.
PairScratch& ThreadPairScratch() {
  thread_local PairScratch scratch;
  return scratch;
}

}  // namespace

SimBatch::SimBatch(const SimilarityFunction& fn,
                   const CensusDataset& old_dataset,
                   const CensusDataset& new_dataset)
    : fn_(fn), old_dataset_(old_dataset), new_dataset_(new_dataset) {
  TGLINK_TRACE_SPAN("simkernel.build_batch");
  TGLINK_MEM_STAGE("simkernel.build_batch");
  const std::vector<AttributeSpec>& specs = fn.specs();
  plans_.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const AttributeSpec& spec = specs[i];
    if (spec.field == Field::kAge) {
      // ComponentSimilarity routes every age-field component to
      // TemporalAgeSimilarity regardless of the configured measure.
      plans_[i] = {Plan::kAge, -1};
      continue;
    }
    Plan plan = Plan::kFallback;
    switch (spec.measure) {
      case Measure::kExact:
        plan = Plan::kExactId;
        break;
      case Measure::kQGramDice:
        plan = Plan::kGram2Dice;
        break;
      case Measure::kTrigramDice:
        plan = Plan::kGram3Dice;
        break;
      case Measure::kLevenshtein:
        plan = Plan::kLevenshtein;
        break;
      case Measure::kDamerau:
        plan = Plan::kDamerau;
        break;
      case Measure::kJaro:
        plan = Plan::kJaro;
        break;
      case Measure::kJaroWinkler:
        plan = Plan::kJaroWinkler;
        break;
      case Measure::kSoundexEqual:
        plan = Plan::kSoundex;
        break;
      case Measure::kMongeElkan:
      case Measure::kDoubleMetaphone:
      case Measure::kSmithWaterman:
      case Measure::kLcsSubstring:
        plan = Plan::kFallback;
        break;
    }
    plans_[i] = {plan, BuildFieldTable(spec.field)};
  }
  // Build the per-value signatures each table actually needs (a field can
  // be referenced by several specs with different measures).
  for (size_t i = 0; i < specs.size(); ++i) {
    const SpecPlan& plan = plans_[i];
    if (plan.table < 0) continue;
    FieldTable& table = tables_[plan.table];
    const size_t n = table.num_values();
    if (plan.plan == Plan::kGram2Dice && table.gram2_starts.empty()) {
      table.gram2_starts.reserve(n + 1);
      table.gram2_starts.push_back(0);
      for (uint32_t vid = 0; vid < n; ++vid) {
        simkernel::BuildPaddedGramProfile(table.Ref(vid).view(), 2,
                                          &table.gram2_data);
        table.gram2_starts.push_back(
            static_cast<uint32_t>(table.gram2_data.size()));
      }
    }
    if (plan.plan == Plan::kGram3Dice && table.gram3_starts.empty()) {
      table.gram3_starts.reserve(n + 1);
      table.gram3_starts.push_back(0);
      for (uint32_t vid = 0; vid < n; ++vid) {
        simkernel::BuildPaddedGramProfile(table.Ref(vid).view(), 3,
                                          &table.gram3_data);
        table.gram3_starts.push_back(
            static_cast<uint32_t>(table.gram3_data.size()));
      }
    }
    if (plan.plan == Plan::kSoundex && table.soundex_codes.empty()) {
      table.soundex_codes.reserve(n);
      for (uint32_t vid = 0; vid < n; ++vid) {
        table.soundex_codes.push_back(
            simkernel::PackPhoneticCode(Soundex(table.Ref(vid).view())));
      }
    }
  }
  // Logical sizes (element counts, not capacities) so the figure is a pure
  // function of the inputs and bench_diff.py can gate it exactly.
  uint64_t arena_bytes = 0;
  for (const FieldTable& table : tables_) {
    arena_bytes += table.arena.size();
    arena_bytes += table.offsets.size() * sizeof(uint32_t);
    arena_bytes += table.old_ids.size() * sizeof(uint32_t);
    arena_bytes += table.new_ids.size() * sizeof(uint32_t);
    arena_bytes += table.gram2_data.size() * sizeof(uint32_t);
    arena_bytes += table.gram2_starts.size() * sizeof(uint32_t);
    arena_bytes += table.gram3_data.size() * sizeof(uint32_t);
    arena_bytes += table.gram3_starts.size() * sizeof(uint32_t);
    arena_bytes += table.soundex_codes.size() * sizeof(uint64_t);
  }
  obs::ReportArenaBytes("simbatch", arena_bytes);
}

int SimBatch::BuildFieldTable(Field field) {
  int& index = field_table_[static_cast<size_t>(field)];
  if (index >= 0) return index;
  index = static_cast<int>(tables_.size());
  tables_.emplace_back();
  FieldTable& table = tables_.back();
  table.offsets.push_back(0);
  std::unordered_map<std::string, uint32_t> interner;
  const auto intern = [&](const PersonRecord& record) {
    const auto [it, inserted] = interner.emplace(
        GetFieldValue(record, field), static_cast<uint32_t>(interner.size()));
    if (inserted) {
      table.arena.append(it->first);
      table.offsets.push_back(static_cast<uint32_t>(table.arena.size()));
    }
    return it->second;
  };
  table.old_ids.reserve(old_dataset_.num_records());
  for (const PersonRecord& record : old_dataset_.records()) {
    table.old_ids.push_back(intern(record));
  }
  table.new_ids.reserve(new_dataset_.num_records());
  for (const PersonRecord& record : new_dataset_.records()) {
    table.new_ids.push_back(intern(record));
  }
  TGLINK_COUNTER_ADD("simcache.interned_values", interner.size());
  return index;
}

size_t SimBatch::num_interned_values() const {
  size_t total = 0;
  for (const FieldTable& table : tables_) total += table.num_values();
  return total;
}

double SimBatch::PresentValue(size_t spec_index, uint32_t va, uint32_t vb,
                              const PersonRecord& ra, const PersonRecord& rb,
                              double kernel_min,
                              const FallbackFn& fallback) const {
  const SpecPlan& plan = plans_[spec_index];
  switch (plan.plan) {
    case Plan::kAge:
      return TemporalAgeSimilarity(ra.age, rb.age, fn_.year_gap(),
                                   fn_.age_tolerance());
    case Plan::kExactId:
      return va == vb ? 1.0 : 0.0;
    case Plan::kSoundex: {
      const FieldTable& t = tables_[plan.table];
      return t.soundex_codes[va] == t.soundex_codes[vb] ? 1.0 : 0.0;
    }
    case Plan::kGram2Dice: {
      if (va == vb) return 1.0;
      const FieldTable& t = tables_[plan.table];
      return simkernel::DiceProfileKernel(
          t.gram2_data.data() + t.gram2_starts[va],
          t.gram2_starts[va + 1] - t.gram2_starts[va],
          t.gram2_data.data() + t.gram2_starts[vb],
          t.gram2_starts[vb + 1] - t.gram2_starts[vb], kernel_min);
    }
    case Plan::kGram3Dice: {
      if (va == vb) return 1.0;
      const FieldTable& t = tables_[plan.table];
      return simkernel::DiceProfileKernel(
          t.gram3_data.data() + t.gram3_starts[va],
          t.gram3_starts[va + 1] - t.gram3_starts[va],
          t.gram3_data.data() + t.gram3_starts[vb],
          t.gram3_starts[vb + 1] - t.gram3_starts[vb], kernel_min);
    }
    case Plan::kLevenshtein: {
      if (va == vb) return 1.0;
      const FieldTable& t = tables_[plan.table];
      return simkernel::LevenshteinKernel(t.Ref(va), t.Ref(vb), kernel_min);
    }
    case Plan::kDamerau: {
      if (va == vb) return 1.0;
      const FieldTable& t = tables_[plan.table];
      return simkernel::DamerauKernel(t.Ref(va), t.Ref(vb), kernel_min);
    }
    case Plan::kJaro: {
      if (va == vb) return 1.0;
      const FieldTable& t = tables_[plan.table];
      return simkernel::JaroKernel(t.Ref(va), t.Ref(vb), kernel_min);
    }
    case Plan::kJaroWinkler: {
      if (va == vb) return 1.0;
      const FieldTable& t = tables_[plan.table];
      return simkernel::JaroWinklerKernel(t.Ref(va), t.Ref(vb), kernel_min);
    }
    case Plan::kFallback: {
      const FieldTable& t = tables_[plan.table];
      return fallback(spec_index, va, vb, t.Ref(va).view(), t.Ref(vb).view());
    }
  }
  return 0.0;
}

double SimBatch::Aggregate(RecordId old_id, RecordId new_id,
                           const FallbackFn& fallback) const {
  const PersonRecord& ra = old_dataset_.record(old_id);
  const PersonRecord& rb = new_dataset_.record(new_id);
  return fn_.AggregateWith([&](size_t i, bool* missing_one,
                               bool* missing_both) -> double {
    const SpecPlan& plan = plans_[i];
    bool ma = false, mb = false;
    uint32_t va = 0, vb = 0;
    if (plan.table < 0) {
      ma = !ra.has_age();
      mb = !rb.has_age();
    } else {
      const FieldTable& t = tables_[plan.table];
      va = t.old_ids[old_id];
      vb = t.new_ids[new_id];
      ma = t.Missing(va);
      mb = t.Missing(vb);
    }
    // ComponentSimilarity's missing-value protocol, verbatim.
    *missing_both = ma && mb;
    *missing_one = (ma || mb) && !*missing_both;
    if (ma || mb) return 0.0;
    const double s = PresentValue(i, va, vb, ra, rb, /*kernel_min=*/0.0,
                                  fallback);
    TGLINK_DCHECK(s >= 0.0 && s <= 1.0)
        << "batched measure " << MeasureName(fn_.specs()[i].measure) << " on "
        << FieldName(fn_.specs()[i].field) << " returned " << s;
    return s;
  });
}

double SimBatch::AggregateWithThreshold(RecordId old_id, RecordId new_id,
                                        double min_sim,
                                        const FallbackFn& fallback) const {
  if (min_sim <= 0.0) return Aggregate(old_id, new_id, fallback);
  TGLINK_COUNTER_INC("simkernel.screened");
  const PersonRecord& ra = old_dataset_.record(old_id);
  const PersonRecord& rb = new_dataset_.record(new_id);
  const std::vector<AttributeSpec>& specs = fn_.specs();
  const MissingPolicy policy = fn_.missing_policy();
  PairScratch& scratch = ThreadPairScratch();
  scratch.state.resize(specs.size());
  scratch.rem_after.resize(specs.size());

  // Phase 0+1: missing flags and O(1) per-component upper bounds. The
  // missing pattern fully determines the Eq. 3 denominator and the
  // coverage floor, so those are evaluated exactly here; only the present
  // components' values remain uncertain.
  double weight_total = 0.0;
  double weight_counted = 0.0;
  double weight_covered = 0.0;
  double ub_sum = 0.0;       // optimistic weighted sum, all bounds applied
  double ub_len_sum = 0.0;   // ditto with gram-profile bounds relaxed to 1
  for (size_t i = 0; i < specs.size(); ++i) {
    const AttributeSpec& spec = specs[i];
    const SpecPlan& plan = plans_[i];
    SpecState& st = scratch.state[i];
    st = SpecState{};
    weight_total += spec.weight;
    bool ma = false, mb = false;
    if (plan.table < 0) {
      ma = !ra.has_age();
      mb = !rb.has_age();
    } else {
      const FieldTable& t = tables_[plan.table];
      st.va = t.old_ids[old_id];
      st.vb = t.new_ids[new_id];
      ma = t.Missing(st.va);
      mb = t.Missing(st.vb);
    }
    st.missing_both = ma && mb;
    st.missing_one = (ma || mb) && !st.missing_both;
    if (ma || mb) {
      // AggregateWith's contribution for a missing component is an exact
      // constant; fold it into both bound sums.
      double contrib = 0.0;
      switch (policy) {
        case MissingPolicy::kRedistribute:
          if (st.missing_both) break;  // excluded entirely
          weight_counted += spec.weight;
          break;
        case MissingPolicy::kZero:
          weight_counted += spec.weight;
          break;
        case MissingPolicy::kNeutral:
          weight_counted += spec.weight;
          contrib = spec.weight * 0.5;
          break;
      }
      st.contrib_ub = contrib;
      ub_sum += contrib;
      ub_len_sum += contrib;
      continue;
    }
    st.present = true;
    weight_counted += spec.weight;
    weight_covered += spec.weight;
    double ub = 1.0;
    double len_ub = 1.0;
    switch (plan.plan) {
      case Plan::kAge:
      case Plan::kExactId:
      case Plan::kSoundex:
        // O(1) exact values: use them as their own (tight) bound and skip
        // the kernel dispatch in phase 2.
        st.value = PresentValue(i, st.va, st.vb, ra, rb, 0.0, fallback);
        st.known = true;
        ub = st.value;
        len_ub = ub;
        break;
      case Plan::kGram2Dice: {
        const FieldTable& t = tables_[plan.table];
        if (st.va == st.vb) {
          st.value = 1.0;
          st.known = true;
          ub = 1.0;
        } else {
          ub = simkernel::DiceUpperBound(
              t.gram2_starts[st.va + 1] - t.gram2_starts[st.va],
              t.gram2_starts[st.vb + 1] - t.gram2_starts[st.vb]);
        }
        break;
      }
      case Plan::kGram3Dice: {
        const FieldTable& t = tables_[plan.table];
        if (st.va == st.vb) {
          st.value = 1.0;
          st.known = true;
          ub = 1.0;
        } else {
          ub = simkernel::DiceUpperBound(
              t.gram3_starts[st.va + 1] - t.gram3_starts[st.va],
              t.gram3_starts[st.vb + 1] - t.gram3_starts[st.vb]);
        }
        break;
      }
      case Plan::kLevenshtein:
      case Plan::kDamerau: {
        const FieldTable& t = tables_[plan.table];
        ub = simkernel::EditUpperBound(t.Ref(st.va).len, t.Ref(st.vb).len);
        len_ub = ub;
        break;
      }
      case Plan::kJaro: {
        const FieldTable& t = tables_[plan.table];
        ub = simkernel::JaroUpperBound(t.Ref(st.va).len, t.Ref(st.vb).len);
        len_ub = ub;
        break;
      }
      case Plan::kJaroWinkler: {
        const FieldTable& t = tables_[plan.table];
        ub = simkernel::JaroWinklerUpperBound(t.Ref(st.va).len,
                                              t.Ref(st.vb).len);
        len_ub = ub;
        break;
      }
      case Plan::kFallback:
        break;  // no sound bound; ub stays 1
    }
    st.contrib_ub = spec.weight * ub;
    ub_sum += st.contrib_ub;
    ub_len_sum += spec.weight * len_ub;
  }

  // Structural zeroes: AggregateWith returns exactly 0.0 for these, and
  // 0 < min_sim here, so rejecting is sound (and exact).
  if (weight_counted <= 0.0 ||
      (policy == MissingPolicy::kRedistribute &&
       weight_covered < 0.5 * weight_total)) {
    TGLINK_COUNTER_INC("simkernel.pruned_by_coverage");
    return kPruned;
  }

  const double denom =
      policy == MissingPolicy::kRedistribute ? weight_counted : weight_total;
  // Reject only when the optimistic aggregate is below min_sim by more
  // than the margin, so fp rounding of the bound arithmetic can never
  // reject a pair whose exact aggregate reaches min_sim.
  const double cutoff = (min_sim - simkernel::kPruneMargin) * denom;
  if (ub_sum < cutoff) {
    if (ub_len_sum < cutoff) {
      TGLINK_COUNTER_INC("simkernel.pruned_by_length");
    } else {
      TGLINK_COUNTER_INC("simkernel.pruned_by_profile");
    }
    return kPruned;
  }

  // Suffix bounds: rem_after[i] = sum of contrib_ub over specs after i.
  {
    double acc = 0.0;
    for (size_t i = specs.size(); i-- > 0;) {
      scratch.rem_after[i] = acc;
      acc += scratch.state[i].contrib_ub;
    }
  }

  // Phase 2: exact evaluation through the shared aggregation arithmetic,
  // with a running cutoff handed to each kernel. Once `pruned` flips, the
  // remaining components return 0 (their flags stay correct) and the
  // aggregate is discarded.
  bool pruned = false;
  double exact_sum = 0.0;  // exact weighted contributions so far
  const double agg = fn_.AggregateWith([&](size_t i, bool* missing_one,
                                           bool* missing_both) -> double {
    const SpecState& st = scratch.state[i];
    *missing_one = st.missing_one;
    *missing_both = st.missing_both;
    if (!st.present) {
      exact_sum += st.contrib_ub;  // the exact policy constant
      return 0.0;
    }
    if (pruned) return 0.0;
    const AttributeSpec& spec = specs[i];
    double s;
    if (st.known) {
      s = st.value;
    } else {
      // Minimum value component i must reach for the pair to stay viable,
      // given the exact sum so far and the remaining components' bounds.
      double kernel_min = 0.0;
      const double needed = cutoff - exact_sum - scratch.rem_after[i];
      if (needed > 0.0 && spec.weight > 0.0) kernel_min = needed / spec.weight;
      s = PresentValue(i, st.va, st.vb, ra, rb, kernel_min, fallback);
      if (s == simkernel::kBelowMinSim) {
        pruned = true;  // the kernel already counted the bound type
        return 0.0;
      }
      TGLINK_DCHECK(s >= 0.0 && s <= 1.0)
          << "batched measure " << MeasureName(spec.measure) << " on "
          << FieldName(spec.field) << " returned " << s;
    }
    exact_sum += spec.weight * s;
    if (exact_sum + scratch.rem_after[i] < cutoff) {
      pruned = true;
      TGLINK_COUNTER_INC("simkernel.pruned_by_cutoff");
    }
    return s;
  });
  if (pruned) return kPruned;
  return agg;
}

}  // namespace tglink
