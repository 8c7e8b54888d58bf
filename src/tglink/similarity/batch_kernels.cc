#include "tglink/similarity/batch_kernels.h"

#include <algorithm>
#include <cassert>

#include "tglink/obs/metrics.h"
#include "tglink/util/logging.h"

namespace tglink {
namespace simkernel {

namespace {

/// Myers' bit-parallel algorithm handles patterns up to one machine word.
constexpr uint32_t kMyersMaxPattern = 64;

/// Reusable per-thread buffers: DP rows for the banded/Damerau paths,
/// matched flags for Jaro, gram profiles for QGramDiceKernel. Cleared (not
/// freed) between calls, so steady-state kernel calls never touch the heap.
struct KernelScratch {
  uint64_t peq[256] = {};  // Myers pattern masks; zeroed after every use
  std::vector<int> row;
  std::vector<int> row2;
  std::vector<int> row3;
  std::vector<unsigned char> matched_a;
  std::vector<unsigned char> matched_b;
  std::vector<uint32_t> profile_a;
  std::vector<uint32_t> profile_b;
};

KernelScratch& Scratch() {
  thread_local KernelScratch scratch;
  return scratch;
}

/// Exact Levenshtein distance for patterns of 1..64 chars, O(|text|) words.
int MyersDistance(StringRef pattern, StringRef text) {
  assert(pattern.len >= 1 && pattern.len <= kMyersMaxPattern);
  uint64_t* peq = Scratch().peq;
  const auto* p = reinterpret_cast<const unsigned char*>(pattern.data);
  for (uint32_t i = 0; i < pattern.len; ++i) {
    peq[p[i]] |= uint64_t{1} << i;
  }
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int score = static_cast<int>(pattern.len);
  const uint64_t high = uint64_t{1} << (pattern.len - 1);
  const auto* t = reinterpret_cast<const unsigned char*>(text.data);
  for (uint32_t j = 0; j < text.len; ++j) {
    const uint64_t eq = peq[t[j]];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & high) {
      ++score;
    } else if (mh & high) {
      --score;
    }
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  // Zero only the touched mask entries (O(pattern), not O(256)).
  for (uint32_t i = 0; i < pattern.len; ++i) {
    peq[p[i]] = 0;
  }
  return score;
}

/// Ukkonen-banded Levenshtein: exact distance when it is <= cap, any value
/// > cap otherwise. With cap >= max(la, lb) the band covers the full table
/// and this is the textbook two-row DP.
int BandedLevenshtein(StringRef a, StringRef b, int cap) {
  if (a.len < b.len) std::swap(a, b);  // b is the shorter string
  const int la = static_cast<int>(a.len);
  const int lb = static_cast<int>(b.len);
  if (la - lb > cap) return cap + 1;
  const int inf = cap + 1;
  std::vector<int>& row = Scratch().row;
  row.resize(static_cast<size_t>(lb) + 1);
  for (int j = 0; j <= lb; ++j) row[j] = (j <= cap) ? j : inf;
  for (int i = 1; i <= la; ++i) {
    const int lo = std::max(1, i - cap);
    const int hi = std::min(lb, i + cap);
    int diag = row[lo - 1];  // row[i-1][lo-1], inside the previous band
    // Left boundary cell row[i][lo-1]: the real column-0 value while the
    // band still touches it, out-of-band (= inf) once it has moved on.
    int left = (lo == 1 && i <= cap) ? i : inf;
    row[lo - 1] = left;
    for (int j = lo; j <= hi; ++j) {
      // Column i+cap was outside the previous row's band; its stored value
      // is stale and must read as inf.
      const int up = (j == i + cap) ? inf : row[j];
      const int cost = (a.data[i - 1] == b.data[j - 1]) ? 0 : 1;
      int v = std::min({up + 1, left + 1, diag + cost});
      if (v > inf) v = inf;
      row[j] = v;
      left = v;
      diag = up;
    }
  }
  return row[lb];
}

/// 1 - dist / max(la, lb); shared by Levenshtein and Damerau.
double NormalizedEditSimilarity(int dist, size_t la, size_t lb) {
  const size_t longest = std::max(la, lb);
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(dist) / static_cast<double>(longest);
}

}  // namespace

double EditUpperBound(size_t la, size_t lb) {
  const size_t longest = std::max(la, lb);
  if (longest == 0) return 1.0;
  const size_t diff = la > lb ? la - lb : lb - la;
  return 1.0 - static_cast<double>(diff) / static_cast<double>(longest);
}

double JaroUpperBound(size_t la, size_t lb) {
  if (la == 0 || lb == 0) return la == lb ? 1.0 : 0.0;
  // jaro = (m/la + m/lb + (m - t/2)/m) / 3 with m <= min(la, lb) and
  // t >= 0; every term is monotone, so evaluate at m = min, t = 0.
  const double m = static_cast<double>(std::min(la, lb));
  return (m / static_cast<double>(la) + m / static_cast<double>(lb) + 1.0) /
         3.0;
}

double JaroWinklerUpperBound(size_t la, size_t lb) {
  const double jaro = JaroUpperBound(la, lb);
  // Same expression shape as the kernel, at prefix = 4, scale = 0.1.
  return jaro + 4.0 * 0.1 * (1.0 - jaro);
}

double DiceUpperBound(size_t na, size_t nb) {
  if (na + nb == 0) return 1.0;
  const double common = static_cast<double>(std::min(na, nb));
  return 2.0 * common / static_cast<double>(na + nb);
}

double LevenshteinKernel(StringRef a, StringRef b, double min_sim) {
  if (a.len == 0 && b.len == 0) return 1.0;
  if (a.len == 0 || b.len == 0) return 0.0;
  const size_t la = a.len;
  const size_t lb = b.len;
  if (min_sim > 0.0 && EditUpperBound(la, lb) < min_sim - kPruneMargin) {
    TGLINK_COUNTER_INC("simkernel.pruned_by_length");
    return kBelowMinSim;
  }
  const size_t longest = std::max(la, lb);
  int dist = 0;
  if (std::min(la, lb) <= kMyersMaxPattern) {
    TGLINK_COUNTER_INC("simkernel.myers_hits");
    dist = la <= lb ? MyersDistance(a, b) : MyersDistance(b, a);
  } else {
    TGLINK_COUNTER_INC("simkernel.fallback_hits");
    // dist > cap proves sim < min_sim with >= 1/longest to spare: cap + 1
    // exceeds (1 - min_sim) * longest even after fp rounding of the product.
    const int cap =
        min_sim > 0.0
            ? std::min(static_cast<int>(longest),
                       static_cast<int>((1.0 - min_sim) *
                                        static_cast<double>(longest)) +
                           1)
            : static_cast<int>(longest);
    dist = BandedLevenshtein(a, b, cap);
    if (dist > cap) {
      TGLINK_COUNTER_INC("simkernel.pruned_by_length");
      return kBelowMinSim;
    }
  }
  return NormalizedEditSimilarity(dist, la, lb);
}

double DamerauKernel(StringRef a, StringRef b, double min_sim) {
  if (a.len == 0 && b.len == 0) return 1.0;
  if (a.len == 0 || b.len == 0) return 0.0;
  const size_t n = a.len;
  const size_t m = b.len;
  if (min_sim > 0.0 && EditUpperBound(n, m) < min_sim - kPruneMargin) {
    TGLINK_COUNTER_INC("simkernel.pruned_by_length");
    return kBelowMinSim;
  }
  // Optimal-string-alignment recurrence on three thread-local rolling rows
  // (row i-2 carries the transposition term).
  KernelScratch& scratch = Scratch();
  std::vector<int>& prev2 = scratch.row;
  std::vector<int>& prev = scratch.row2;
  std::vector<int>& cur = scratch.row3;
  prev2.resize(m + 1);
  prev.resize(m + 1);
  cur.resize(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int cost = (a.data[i - 1] == b.data[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
      if (i > 1 && j > 1 && a.data[i - 1] == b.data[j - 2] &&
          a.data[i - 2] == b.data[j - 1]) {
        cur[j] = std::min(cur[j], prev2[j - 2] + 1);
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return NormalizedEditSimilarity(prev[m], n, m);
}

double JaroKernel(StringRef a, StringRef b, double min_sim) {
  if (a.len == 0 && b.len == 0) return 1.0;
  if (a.len == 0 || b.len == 0) return 0.0;
  if (min_sim > 0.0 &&
      JaroUpperBound(a.len, b.len) < min_sim - kPruneMargin) {
    TGLINK_COUNTER_INC("simkernel.pruned_by_length");
    return kBelowMinSim;
  }
  if (a.view() == b.view()) return 1.0;

  // Matches within the window max(la, lb)/2 - 1, then transpositions among
  // the matched characters in order, on thread-local matched-flag scratch.
  const int la = static_cast<int>(a.len);
  const int lb = static_cast<int>(b.len);
  const int window = std::max(0, std::max(la, lb) / 2 - 1);

  KernelScratch& scratch = Scratch();
  scratch.matched_a.assign(a.len, 0);
  scratch.matched_b.assign(b.len, 0);
  unsigned char* matched_a = scratch.matched_a.data();
  unsigned char* matched_b = scratch.matched_b.data();
  int matches = 0;
  for (int i = 0; i < la; ++i) {
    const int lo = std::max(0, i - window);
    const int hi = std::min(lb - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!matched_b[j] && a.data[i] == b.data[j]) {
        matched_a[i] = matched_b[j] = 1;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < la; ++i) {
    if (!matched_a[i]) continue;
    while (!matched_b[j]) ++j;
    if (a.data[i] != b.data[j]) ++transpositions;
    ++j;
  }
  const double m = matches;
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerKernel(StringRef a, StringRef b, double min_sim) {
  if (a.len == 0 && b.len == 0) return 1.0;
  if (a.len == 0 || b.len == 0) return 0.0;
  if (min_sim > 0.0 &&
      JaroWinklerUpperBound(a.len, b.len) < min_sim - kPruneMargin) {
    TGLINK_COUNTER_INC("simkernel.pruned_by_length");
    return kBelowMinSim;
  }
  // Winkler boost is nonnegative, so the inner Jaro must not prune at the
  // Jaro-Winkler cutoff; pass 0 and boost by up to 4 characters of common
  // prefix at the 0.1 scale.
  const double jaro = JaroKernel(a, b, 0.0);
  constexpr double kPrefixScale = 0.1;
  size_t prefix = 0;
  const size_t limit =
      std::min({static_cast<size_t>(a.len), static_cast<size_t>(b.len),
                size_t{4}});
  while (prefix < limit && a.data[prefix] == b.data[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * kPrefixScale * (1.0 - jaro);
}

double DiceProfileKernel(const uint32_t* a, size_t na, const uint32_t* b,
                         size_t nb, double min_sim) {
  TGLINK_DCHECK(na > 0 && nb > 0) << "Dice profiles must be non-empty";
  if (min_sim > 0.0 && DiceUpperBound(na, nb) < min_sim - kPruneMargin) {
    TGLINK_COUNTER_INC("simkernel.pruned_by_profile");
    return kBelowMinSim;
  }
  size_t i = 0, j = 0, common = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  // 2|A∩B| / (|A|+|B|).
  return 2.0 * static_cast<double>(common) / static_cast<double>(na + nb);
}

double QGramDiceKernel(std::string_view a, std::string_view b, int q,
                       double min_sim) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  KernelScratch& scratch = Scratch();
  scratch.profile_a.clear();
  scratch.profile_b.clear();
  BuildPaddedGramProfile(a, q, &scratch.profile_a);
  BuildPaddedGramProfile(b, q, &scratch.profile_b);
  return DiceProfileKernel(scratch.profile_a.data(), scratch.profile_a.size(),
                           scratch.profile_b.data(), scratch.profile_b.size(),
                           min_sim);
}

void BuildPaddedGramProfile(std::string_view s, int q,
                            std::vector<uint32_t>* out) {
  TGLINK_DCHECK(q == 2 || q == 3) << "packed profiles support q in {2,3}";
  // Rolling window over the virtual padded string (q-1)*'#' + s +
  // (q-1)*'$': one gram ends at each byte of s and at each trailing '$'.
  const size_t pad = static_cast<size_t>(q - 1);
  const uint32_t mask = q == 2 ? 0xFFFFu : 0xFFFFFFu;
  const size_t start = out->size();
  out->reserve(start + s.size() + pad);
  uint32_t code = 0;
  for (size_t k = 0; k < pad; ++k) code = (code << 8) | '#';
  for (const char c : s) {
    code = ((code << 8) | static_cast<unsigned char>(c)) & mask;
    out->push_back(code);
  }
  for (size_t k = 0; k < pad; ++k) {
    code = ((code << 8) | '$') & mask;
    out->push_back(code);
  }
  std::sort(out->begin() + static_cast<ptrdiff_t>(start), out->end());
}

uint64_t PackPhoneticCode(std::string_view code) {
  TGLINK_DCHECK(code.size() <= 8) << "phonetic code too long: " << code;
  uint64_t packed = 0;
  for (const char c : code) {
    packed = (packed << 8) | static_cast<unsigned char>(c);
  }
  return packed;
}

}  // namespace simkernel
}  // namespace tglink
