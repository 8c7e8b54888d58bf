// SimilarityFunction — the paper's Sim_func: a set of (attribute, measure,
// weight) components, an aggregation by weighted sum (Eq. 3), and an accept
// threshold δ that the iterative algorithm relaxes round by round.

#ifndef TGLINK_SIMILARITY_COMPOSITE_H_
#define TGLINK_SIMILARITY_COMPOSITE_H_

#include <string>
#include <vector>

#include "tglink/census/record.h"
#include "tglink/similarity/field_similarity.h"
#include "tglink/util/logging.h"

namespace tglink {

/// One component of a composite similarity function.
struct AttributeSpec {
  Field field = Field::kFirstName;
  Measure measure = Measure::kQGramDice;
  double weight = 1.0;
};

/// Policy for attributes with missing values.
enum class MissingPolicy : uint8_t {
  /// The default: an attribute missing on BOTH records carries no evidence —
  /// it is excluded and its weight redistributed; an attribute missing on
  /// exactly ONE record is weak disagreement evidence and scores 0 at full
  /// weight. A coverage floor guards the redistribution: if the attributes
  /// present on both sides carry less than half the total weight, the pair
  /// scores 0 (two near-empty records must not look identical just because
  /// their only surviving attribute agrees).
  kRedistribute,
  /// Score the attribute 0 whenever either value is missing (strictest
  /// interpretation of Eq. 3).
  kZero,
  /// Score the attribute 0.5 whenever either value is missing.
  kNeutral,
};

/// Weighted-sum record similarity with missing-value handling and (for the
/// age attribute) temporal adjustment by the census year gap.
class SimilarityFunction {
 public:
  SimilarityFunction() = default;
  SimilarityFunction(std::vector<AttributeSpec> specs, double threshold);

  const std::vector<AttributeSpec>& specs() const { return specs_; }

  double threshold() const { return threshold_; }
  void set_threshold(double threshold) { threshold_ = threshold; }

  MissingPolicy missing_policy() const { return missing_policy_; }
  void set_missing_policy(MissingPolicy policy) { missing_policy_ = policy; }

  /// Years between the two snapshots being compared; only used by a
  /// Field::kAge component (a person aged a in D_i is expected aged
  /// a + year_gap in D_{i+1}).
  int year_gap() const { return year_gap_; }
  void set_year_gap(int gap) { year_gap_ = gap; }

  /// Tolerance in years for the age component (default 3, matching the
  /// paper's age filter).
  int age_tolerance() const { return age_tolerance_; }
  void set_age_tolerance(int tolerance) { age_tolerance_ = tolerance; }

  /// Per-attribute similarity vector sim(r_i, r_{i+1}); missing attributes
  /// score according to the missing policy (kRedistribute reports -1 so that
  /// AggregateVector can exclude them).
  [[nodiscard]] std::vector<double> Compare(const PersonRecord& a,
                                            const PersonRecord& b) const;

  /// agg_sim = ω · sim (Eq. 3), with the configured missing-value handling.
  [[nodiscard]] double AggregateSimilarity(const PersonRecord& a,
                                           const PersonRecord& b) const;

  /// Similarity of one component: specs()[i] evaluated on (a, b), with the
  /// missing flags a caller needs to apply the missing policy itself.
  [[nodiscard]] double ComponentSimilarity(const AttributeSpec& spec,
                                           const PersonRecord& a,
                                           const PersonRecord& b,
                                           bool* missing_one,
                                           bool* missing_both) const;

  /// The aggregation arithmetic of Eq. 3, shared by the direct path
  /// (AggregateSimilarity) and the batched path (SimBatch in
  /// similarity/sim_batch.h) so the two can never drift:
  /// `component(i, &missing_one, &missing_both)` must return
  /// ComponentSimilarity of specs()[i] — from any source that is
  /// bit-identical to it, e.g. a kernel over interned value tables.
  template <typename ComponentFn>
  [[nodiscard]] double AggregateWith(ComponentFn&& component) const {
    double weighted_sum = 0.0;
    double weight_total = 0.0;    // full weight mass, for normalization
    double weight_counted = 0.0;  // weight mass entering the denominator
    double weight_covered = 0.0;  // weight of attributes present on BOTH sides
    for (size_t i = 0; i < specs_.size(); ++i) {
      const AttributeSpec& spec = specs_[i];
      weight_total += spec.weight;
      bool missing_one = false, missing_both = false;
      const double s = component(i, &missing_one, &missing_both);
      if (missing_one || missing_both) {
        switch (missing_policy_) {
          case MissingPolicy::kRedistribute:
            if (missing_both) continue;  // no evidence either way: excluded
            weight_counted += spec.weight;  // one-sided: disagreement, s = 0
            continue;
          case MissingPolicy::kZero:
            weight_counted += spec.weight;
            continue;
          case MissingPolicy::kNeutral:
            weight_counted += spec.weight;
            weighted_sum += spec.weight * 0.5;
            continue;
        }
      }
      weight_counted += spec.weight;
      weight_covered += spec.weight;
      weighted_sum += spec.weight * s;
    }
    if (weight_counted <= 0.0) return 0.0;  // every attribute missing
    double agg = 0.0;
    if (missing_policy_ == MissingPolicy::kRedistribute) {
      // Coverage floor: refuse to call two records similar when most of the
      // weight mass was unobservable on both sides.
      if (weight_covered < 0.5 * weight_total) return 0.0;
      agg = weighted_sum / weight_counted;
    } else {
      agg = weighted_sum / weight_total;
    }
    // Eq. 3 is a convex combination of per-attribute similarities, so the
    // aggregate must stay inside [0,1] for every missing policy.
    TGLINK_DCHECK(agg >= 0.0 && agg <= 1.0)
        << "aggregate similarity out of range: " << agg;
    return agg;
  }

  /// True iff AggregateSimilarity(a,b) >= threshold().
  [[nodiscard]] bool Matches(const PersonRecord& a,
                             const PersonRecord& b) const;

  /// Human-readable description (for experiment logs).
  [[nodiscard]] std::string ToString() const;

 private:
  std::vector<AttributeSpec> specs_;
  double threshold_ = 0.7;
  MissingPolicy missing_policy_ = MissingPolicy::kRedistribute;
  int year_gap_ = 10;
  int age_tolerance_ = 3;
};

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_COMPOSITE_H_
