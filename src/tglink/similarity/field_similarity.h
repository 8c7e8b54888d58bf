// Per-attribute similarity dispatch: pairs a census Field with one of the
// concrete string measures. This is the unit a SimilarityFunction (Eq. 3 of
// the paper) is assembled from.

#ifndef TGLINK_SIMILARITY_FIELD_SIMILARITY_H_
#define TGLINK_SIMILARITY_FIELD_SIMILARITY_H_

#include <cstdint>
#include <string_view>

namespace tglink {

enum class Measure : uint8_t {
  kExact,        // 1 iff equal
  kQGramDice,    // padded bigram Dice (the paper's "q-gram")
  kTrigramDice,  // padded trigram Dice
  kLevenshtein,  // normalized edit similarity
  kDamerau,      // normalized OSA similarity
  kJaro,
  kJaroWinkler,
  kMongeElkan,       // token-level with Jaro-Winkler inner (addresses)
  kSoundexEqual,     // 1 iff Soundex codes match
  kDoubleMetaphone,  // graded phonetic agreement (1 / 0.8 / 0)
  kSmithWaterman,    // local alignment, normalized
  kLcsSubstring,     // longest common substring, normalized
};

[[nodiscard]] const char* MeasureName(Measure measure);

/// Computes the chosen measure on two already-normalized values.
/// Conventions shared by all measures: both empty -> 1, one empty -> 0.
/// The measures with an allocation-free kernel (exact, both Dice sizes, the
/// edit and Jaro families, Soundex — see batch_kernels.h) run it with
/// `min_sim` and may return simkernel::kBelowMinSim when a bound proves the
/// value is below a positive `min_sim`; the rest ignore it. At the default
/// `min_sim = 0` every measure returns its exact value.
[[nodiscard]] double ComputeMeasure(Measure measure, std::string_view a,
                                    std::string_view b, double min_sim = 0.0);

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_FIELD_SIMILARITY_H_
