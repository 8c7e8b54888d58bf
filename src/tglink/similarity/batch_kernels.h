// Allocation-free similarity kernels with threshold-aware pruning — the
// library's only implementation of exact, bigram/trigram Dice, Levenshtein,
// Damerau, Jaro, Jaro-Winkler and Soundex agreement. Every caller reaches
// them: SimBatch scores against its interned arena and precomputed
// profiles, ComputeMeasure (field_similarity.h) against two plain strings.
//
// The kernels read flat `StringRef` views and reuse thread-local scratch
// buffers (DP rows, matched flags, gram profiles), so steady-state calls do
// no heap work per pair.
//
// Threshold-aware pruning: each kernel takes a `min_sim` cutoff. When an
// O(1) upper bound (length difference for the edit/Jaro family, gram-profile
// counts for Dice) already proves the similarity cannot reach `min_sim`,
// the kernel returns `kBelowMinSim` without running the comparison. The
// bounds are evaluated with a `kPruneMargin` safety margin so floating-point
// rounding can never reject a pair whose true similarity is >= min_sim
// (pruned ⇒ true sim < min_sim, the invariant the property tests pin).
// `min_sim <= 0` disables pruning and the kernels are then total functions.
//
// The textbook reference oracle (string-multiset Dice, full-table edit
// DP, vector<bool> Jaro) lives in tests/reference_measures.h;
// tests/similarity_kernel_property_test.cc checks every kernel against it
// bit for bit.

#ifndef TGLINK_SIMILARITY_BATCH_KERNELS_H_
#define TGLINK_SIMILARITY_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace tglink {
namespace simkernel {

/// Offset+length view into a contiguous arena (half the size of a
/// std::string_view so per-value tables stay cache-dense).
struct StringRef {
  const char* data = nullptr;
  uint32_t len = 0;

  [[nodiscard]] std::string_view view() const { return {data, len}; }
  [[nodiscard]] bool empty() const { return len == 0; }
};

inline StringRef MakeRef(std::string_view s) {
  return {s.data(), static_cast<uint32_t>(s.size())};
}

/// Sentinel for "provably below the min_sim cutoff". Real similarities are
/// always in [0, 1], so the sentinel never collides with a value.
inline constexpr double kBelowMinSim = -1.0;

/// Safety margin for every pruning comparison: a bound only rejects when it
/// is below `min_sim - kPruneMargin`, absorbing the (≤ a few ulps) rounding
/// of the bound arithmetic so pruning is sound, never merely probable.
inline constexpr double kPruneMargin = 1e-9;

// ---------------------------------------------------------------------------
// O(1) upper bounds. Each returns a value >= the corresponding similarity
// as computed by its kernel (in the same floating-point arithmetic,
// so `computed_sim <= bound` holds ulp-for-ulp for the monotone formulas;
// the kPruneMargin above covers the rest).

/// Levenshtein/Damerau: dist >= |la - lb|, so sim <= 1 - |la-lb|/max.
[[nodiscard]] double EditUpperBound(size_t la, size_t lb);

/// Jaro: matches m <= min(la, lb) and the transposition term is <= 1, so
/// jaro <= (2 + min/max) / 3.
[[nodiscard]] double JaroUpperBound(size_t la, size_t lb);

/// Jaro-Winkler with the 0.1 prefix scale (the only configuration the
/// kernel implements): jw = j + p*0.1*(1-j) is nondecreasing in both j
/// and p, so plugging in the Jaro bound and p = 4 bounds it.
[[nodiscard]] double JaroWinklerUpperBound(size_t la, size_t lb);

/// Dice over gram profiles of sizes na, nb: |A∩B| <= min(na, nb), so
/// dice <= 2*min/(na+nb).
[[nodiscard]] double DiceUpperBound(size_t na, size_t nb);

// ---------------------------------------------------------------------------
// Kernels. Empty-string conventions match ComputeMeasure (both empty -> 1,
// one empty -> 0); for non-empty inputs each returns the exact similarity,
// or kBelowMinSim when an O(1) bound (or the banded DP's band overflow)
// proves the result is below min_sim.

/// Myers bit-parallel edit distance when the shorter string fits one 64-bit
/// word ("simkernel.myers_hits"), banded dynamic programming otherwise
/// ("simkernel.fallback_hits"); the band is derived from min_sim.
[[nodiscard]] double LevenshteinKernel(StringRef a, StringRef b,
                                       double min_sim);

/// Optimal-string-alignment distance on thread-local rolling rows (Myers
/// has no transposition term, so Damerau stays a scratch-buffer DP).
[[nodiscard]] double DamerauKernel(StringRef a, StringRef b, double min_sim);

/// Jaro on thread-local matched-flag scratch.
[[nodiscard]] double JaroKernel(StringRef a, StringRef b, double min_sim);

/// Jaro-Winkler over JaroKernel with the 0.1 prefix scale.
[[nodiscard]] double JaroWinklerKernel(StringRef a, StringRef b,
                                       double min_sim);

/// Dice coefficient from two precomputed sorted gram profiles (see
/// BuildPaddedGramProfile) via sorted merge. Both profiles must be
/// non-empty (padded grams of non-empty strings always are).
[[nodiscard]] double DiceProfileKernel(const uint32_t* a, size_t na,
                                       const uint32_t* b, size_t nb,
                                       double min_sim);

/// Padded q-gram Dice (q in {2, 3}) on two plain strings: builds both
/// profiles in thread-local scratch, then runs DiceProfileKernel.
[[nodiscard]] double QGramDiceKernel(std::string_view a, std::string_view b,
                                     int q, double min_sim);

// ---------------------------------------------------------------------------
// Precomputed per-string signatures.

/// Appends the sorted, packed padded q-gram profile of `s` (q in {2, 3}:
/// big-endian byte packing, one uint32_t per gram) to `*out`: the grams of
/// (q-1)*'#' + s + (q-1)*'$', without materializing the padded string.
/// Packing is injective, so sorted-merge intersection counts equal the
/// string-gram multiset counts.
void BuildPaddedGramProfile(std::string_view s, int q,
                            std::vector<uint32_t>* out);

/// Packs a Soundex code (<= 8 chars, never containing NUL) into one
/// uint64_t; equality of packed codes ⟺ equality of the code strings.
[[nodiscard]] uint64_t PackPhoneticCode(std::string_view code);

}  // namespace simkernel
}  // namespace tglink

#endif  // TGLINK_SIMILARITY_BATCH_KERNELS_H_
