// Textbook reference implementations of the kernel-backed similarity
// measures — the oracle the library's allocation-free kernels
// (src/tglink/similarity/batch_kernels.h) are checked against bit for bit.
// Written for obviousness, not speed: q-gram Dice over sorted std::string
// multisets, Levenshtein and Damerau (optimal string alignment) as
// row-by-row dynamic programs, Jaro over std::vector<bool> matched flags.
//
// Test-only: linked into the suites that compare against it, never into
// the library.

#ifndef TGLINK_TESTS_REFERENCE_MEASURES_H_
#define TGLINK_TESTS_REFERENCE_MEASURES_H_

#include <string>
#include <string_view>
#include <vector>

#include "tglink/census/record.h"
#include "tglink/similarity/composite.h"
#include "tglink/similarity/field_similarity.h"

namespace tglink {
namespace reference {

/// Sorted multiset of the q-grams of (q-1)*'#' + s + (q-1)*'$'.
[[nodiscard]] std::vector<std::string> PaddedQGrams(std::string_view s,
                                                    int q);

/// Dice coefficient 2|A∩B| / (|A|+|B|) over padded q-gram multisets.
[[nodiscard]] double QGramDice(std::string_view a, std::string_view b, int q);

/// Unit-cost insert/delete/substitute distance.
[[nodiscard]] int LevenshteinDistance(std::string_view a, std::string_view b);

/// Optimal-string-alignment distance: adjacent transpositions cost one.
[[nodiscard]] int DamerauDistance(std::string_view a, std::string_view b);

/// 1 - distance / max(|a|, |b|); two empty strings score 1.
[[nodiscard]] double LevenshteinSimilarity(std::string_view a,
                                           std::string_view b);
[[nodiscard]] double DamerauSimilarity(std::string_view a, std::string_view b);

/// Jaro similarity; two empty strings score 1.
[[nodiscard]] double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler: Jaro boosted by up to 4 characters of common prefix at
/// scale 0.1.
[[nodiscard]] double JaroWinklerSimilarity(std::string_view a,
                                           std::string_view b);

/// Monge-Elkan over whitespace tokens with the reference Jaro-Winkler inner.
[[nodiscard]] double MongeElkanJaroWinkler(std::string_view a,
                                           std::string_view b);

/// ComputeMeasure's contract, evaluated by the reference implementations.
/// Measures that have one implementation only (Soundex coding,
/// double-metaphone, Smith-Waterman, LCS) use the library's.
[[nodiscard]] double MeasureValue(Measure measure, std::string_view a,
                                  std::string_view b);

/// fn.AggregateSimilarity(a, b) assembled independently of the library's
/// scoring paths: fn.AggregateWith over MeasureValue and
/// TemporalAgeSimilarity, under ComponentSimilarity's missing-value
/// protocol.
[[nodiscard]] double Aggregate(const SimilarityFunction& fn,
                               const PersonRecord& a, const PersonRecord& b);

}  // namespace reference
}  // namespace tglink

#endif  // TGLINK_TESTS_REFERENCE_MEASURES_H_
