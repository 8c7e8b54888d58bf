#include "tglink/similarity/field_similarity.h"

#include "tglink/similarity/alignment.h"
#include "tglink/similarity/batch_kernels.h"
#include "tglink/similarity/double_metaphone.h"
#include "tglink/similarity/phonetic.h"
#include "tglink/similarity/token.h"

namespace tglink {

const char* MeasureName(Measure measure) {
  switch (measure) {
    case Measure::kExact:
      return "exact";
    case Measure::kQGramDice:
      return "q-gram";
    case Measure::kTrigramDice:
      return "trigram";
    case Measure::kLevenshtein:
      return "levenshtein";
    case Measure::kDamerau:
      return "damerau";
    case Measure::kJaro:
      return "jaro";
    case Measure::kJaroWinkler:
      return "jaro-winkler";
    case Measure::kMongeElkan:
      return "monge-elkan";
    case Measure::kSoundexEqual:
      return "soundex";
    case Measure::kDoubleMetaphone:
      return "double-metaphone";
    case Measure::kSmithWaterman:
      return "smith-waterman";
    case Measure::kLcsSubstring:
      return "lcs";
  }
  return "?";
}

double ComputeMeasure(Measure measure, std::string_view a, std::string_view b,
                      double min_sim) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const simkernel::StringRef ra = simkernel::MakeRef(a);
  const simkernel::StringRef rb = simkernel::MakeRef(b);
  switch (measure) {
    case Measure::kExact:
      return a == b ? 1.0 : 0.0;
    case Measure::kQGramDice:
      return simkernel::QGramDiceKernel(a, b, 2, min_sim);
    case Measure::kTrigramDice:
      return simkernel::QGramDiceKernel(a, b, 3, min_sim);
    case Measure::kLevenshtein:
      return simkernel::LevenshteinKernel(ra, rb, min_sim);
    case Measure::kDamerau:
      return simkernel::DamerauKernel(ra, rb, min_sim);
    case Measure::kJaro:
      return simkernel::JaroKernel(ra, rb, min_sim);
    case Measure::kJaroWinkler:
      return simkernel::JaroWinklerKernel(ra, rb, min_sim);
    case Measure::kMongeElkan:
      return MongeElkanJaroWinkler(a, b);
    case Measure::kSoundexEqual:
      return Soundex(a) == Soundex(b) ? 1.0 : 0.0;
    case Measure::kDoubleMetaphone:
      return DoubleMetaphoneSimilarity(a, b);
    case Measure::kSmithWaterman:
      return SmithWatermanSimilarity(a, b);
    case Measure::kLcsSubstring:
      return LcsSubstringSimilarity(a, b);
  }
  return 0.0;
}

}  // namespace tglink
