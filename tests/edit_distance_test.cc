// Edit-distance family: Levenshtein and Damerau-Levenshtein (optimal string
// alignment), normalized to 1 - distance / max(|a|, |b|). Distances come
// from the reference dynamic programs; every similarity is checked through
// the library (ComputeMeasure, i.e. the Myers / banded / OSA kernels) and
// the reference oracle.

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "tglink/similarity/field_similarity.h"
#include "tests/reference_measures.h"

namespace tglink {
namespace {

double Levenshtein(std::string_view a, std::string_view b) {
  const double lib = ComputeMeasure(Measure::kLevenshtein, a, b);
  EXPECT_EQ(lib, reference::LevenshteinSimilarity(a, b)) << a << " / " << b;
  return lib;
}

double Damerau(std::string_view a, std::string_view b) {
  const double lib = ComputeMeasure(Measure::kDamerau, a, b);
  EXPECT_EQ(lib, reference::DamerauSimilarity(a, b)) << a << " / " << b;
  return lib;
}

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(reference::LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(reference::LevenshteinDistance("flaw", "lawn"), 2);
  EXPECT_EQ(reference::LevenshteinDistance("", ""), 0);
  EXPECT_EQ(reference::LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(reference::LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(reference::LevenshteinDistance("same", "same"), 0);
  EXPECT_DOUBLE_EQ(Levenshtein("kitten", "sitting"), 1.0 - 3.0 / 7.0);
  EXPECT_DOUBLE_EQ(Levenshtein("flaw", "lawn"), 1.0 - 2.0 / 4.0);
}

TEST(DamerauTest, TranspositionCountsAsOne) {
  EXPECT_EQ(reference::LevenshteinDistance("ashworth", "ashowrth"), 2);
  EXPECT_EQ(reference::DamerauDistance("ashworth", "ashowrth"), 1);
  EXPECT_EQ(reference::DamerauDistance("ca", "ac"), 1);
  EXPECT_EQ(reference::DamerauDistance("abc", "abc"), 0);
  // A swap is two substitutions for Levenshtein, one edit for Damerau.
  EXPECT_DOUBLE_EQ(Levenshtein("ashworth", "ashowrth"), 1.0 - 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(Damerau("ashworth", "ashowrth"), 1.0 - 1.0 / 8.0);
}

TEST(DamerauTest, NeverBelowLevenshtein) {
  const std::pair<const char*, const char*> pairs[] = {
      {"smith", "smyth"},   {"riley", "reilly"}, {"john", "jhon"},
      {"mary", "marry"},    {"steve", "stephen"}, {"", "x"},
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_LE(reference::DamerauDistance(a, b),
              reference::LevenshteinDistance(a, b));
    EXPECT_GE(Damerau(a, b), Levenshtein(a, b));
  }
}

TEST(EditSimilarityTest, NormalizedRangeAndIdentity) {
  EXPECT_DOUBLE_EQ(Levenshtein("", ""), 1.0);
  EXPECT_DOUBLE_EQ(Levenshtein("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(Levenshtein("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(Levenshtein("abcd", "abc"), 0.75);
  EXPECT_DOUBLE_EQ(Damerau("ab", "ba"), 0.5);
}

TEST(EditSimilarityTest, MyersWordBoundary) {
  // 64-char patterns take the bit-parallel path, 65-char ones the banded
  // DP; both must equal the reference at the boundary.
  for (const size_t len : {size_t{63}, size_t{64}, size_t{65}}) {
    const std::string a(len, 'a');
    std::string b = a;
    b[0] = 'z';
    b[len - 1] = 'q';
    EXPECT_DOUBLE_EQ(Levenshtein(a, b),
                     1.0 - 2.0 / static_cast<double>(len));
    EXPECT_DOUBLE_EQ(Levenshtein(a, b + "xyz"),
                     1.0 - 5.0 / static_cast<double>(len + 3));
    (void)Damerau(a, b);
  }
}

// Metric properties over a parameterized pool.
class EditDistancePropertyTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(EditDistancePropertyTest, SymmetryAndBounds) {
  const auto& [a, b] = GetParam();
  EXPECT_EQ(reference::LevenshteinDistance(a, b),
            reference::LevenshteinDistance(b, a));
  EXPECT_EQ(reference::DamerauDistance(a, b),
            reference::DamerauDistance(b, a));
  EXPECT_EQ(Levenshtein(a, b), Levenshtein(b, a));
  EXPECT_EQ(Damerau(a, b), Damerau(b, a));
  const int d = reference::LevenshteinDistance(a, b);
  // Distance bounded by longest length, at least the length difference.
  EXPECT_LE(d, static_cast<int>(std::max(a.size(), b.size())));
  EXPECT_GE(d, static_cast<int>(std::max(a.size(), b.size()) -
                                std::min(a.size(), b.size())));
}

TEST_P(EditDistancePropertyTest, TriangleInequalityThroughFixedPivot) {
  const auto& [a, b] = GetParam();
  const std::string pivot = "ashworth";
  EXPECT_LE(reference::LevenshteinDistance(a, b),
            reference::LevenshteinDistance(a, pivot) +
                reference::LevenshteinDistance(pivot, b));
}

INSTANTIATE_TEST_SUITE_P(
    NamePairs, EditDistancePropertyTest,
    ::testing::Values(std::make_pair("ashworth", "ashword"),
                      std::make_pair("elizabeth", "elisabeth"),
                      std::make_pair("john", "jane"),
                      std::make_pair("", "ab"),
                      std::make_pair("riley", "reilly"),
                      std::make_pair("pickup", "pickles"),
                      std::make_pair("aaaa", "aa"),
                      std::make_pair("smith", "schmidt")));

}  // namespace
}  // namespace tglink
