#include "tests/reference_measures.h"

#include <algorithm>
#include <numeric>

#include "tglink/similarity/numeric.h"
#include "tglink/similarity/phonetic.h"

namespace tglink {
namespace reference {

std::vector<std::string> PaddedQGrams(std::string_view s, int q) {
  std::string padded(static_cast<size_t>(q - 1), '#');
  padded.append(s);
  padded.append(static_cast<size_t>(q - 1), '$');
  std::vector<std::string> grams;
  for (size_t i = 0; i + q <= padded.size(); ++i) {
    grams.push_back(padded.substr(i, q));
  }
  std::sort(grams.begin(), grams.end());
  return grams;
}

double QGramDice(std::string_view a, std::string_view b, int q) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const std::vector<std::string> ga = PaddedQGrams(a, q);
  const std::vector<std::string> gb = PaddedQGrams(b, q);
  // |A ∩ B| for two sorted multisets.
  size_t i = 0, j = 0, common = 0;
  while (i < ga.size() && j < gb.size()) {
    if (ga[i] < gb[j]) {
      ++i;
    } else if (gb[j] < ga[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return 2.0 * static_cast<double>(common) /
         static_cast<double>(ga.size() + gb.size());
}

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (b.empty()) return static_cast<int>(a.size());
  std::vector<int> row(b.size() + 1);
  std::iota(row.begin(), row.end(), 0);
  for (size_t i = 1; i <= a.size(); ++i) {
    int diag = row[0];  // row[i-1][j-1]
    row[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      const int up = row[j];
      const int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

int DamerauDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  // Three rolling rows (need i-2 for transpositions).
  std::vector<int> prev2(m + 1), prev(m + 1), cur(m + 1);
  std::iota(prev.begin(), prev.end(), 0);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], prev2[j - 2] + 1);
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

namespace {

double NormalizedSimilarity(int dist, size_t la, size_t lb) {
  const size_t longest = std::max(la, lb);
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(dist) / static_cast<double>(longest);
}

}  // namespace

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  return NormalizedSimilarity(LevenshteinDistance(a, b), a.size(), b.size());
}

double DamerauSimilarity(std::string_view a, std::string_view b) {
  return NormalizedSimilarity(DamerauDistance(a, b), a.size(), b.size());
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;

  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  const int window = std::max(0, std::max(la, lb) / 2 - 1);

  std::vector<bool> matched_a(a.size(), false), matched_b(b.size(), false);
  int matches = 0;
  for (int i = 0; i < la; ++i) {
    const int lo = std::max(0, i - window);
    const int hi = std::min(lb - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!matched_b[j] && a[i] == b[j]) {
        matched_a[i] = matched_b[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions among the matched characters in order.
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < la; ++i) {
    if (!matched_a[i]) continue;
    while (!matched_b[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = matches;
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  constexpr double kPrefixScale = 0.1;
  const double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * kPrefixScale * (1.0 - jaro);
}

double MeasureValue(Measure measure, std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  switch (measure) {
    case Measure::kExact:
      return a == b ? 1.0 : 0.0;
    case Measure::kQGramDice:
      return QGramDice(a, b, 2);
    case Measure::kTrigramDice:
      return QGramDice(a, b, 3);
    case Measure::kLevenshtein:
      return LevenshteinSimilarity(a, b);
    case Measure::kDamerau:
      return DamerauSimilarity(a, b);
    case Measure::kJaro:
      return JaroSimilarity(a, b);
    case Measure::kJaroWinkler:
      return JaroWinklerSimilarity(a, b);
    case Measure::kSoundexEqual:
      return Soundex(a) == Soundex(b) ? 1.0 : 0.0;
  }
  return 0.0;
}

double Aggregate(const SimilarityFunction& fn, const PersonRecord& a,
                 const PersonRecord& b) {
  return fn.AggregateWith([&](size_t i, bool* missing_one,
                              bool* missing_both) -> double {
    const AttributeSpec& spec = fn.specs()[i];
    const bool ma = IsFieldMissing(a, spec.field);
    const bool mb = IsFieldMissing(b, spec.field);
    *missing_both = ma && mb;
    *missing_one = (ma || mb) && !*missing_both;
    if (ma || mb) return 0.0;
    if (spec.field == Field::kAge) {
      return TemporalAgeSimilarity(a.age, b.age, fn.year_gap(),
                                   fn.age_tolerance());
    }
    return MeasureValue(spec.measure, GetFieldValue(a, spec.field),
                        GetFieldValue(b, spec.field));
  });
}

}  // namespace reference
}  // namespace tglink
