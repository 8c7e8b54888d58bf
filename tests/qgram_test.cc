// Padded q-gram Dice — the paper's primary attribute matcher (Table 2 uses
// "q-gram" for first name, surname, address and occupation). Every known
// value is checked through the library (ComputeMeasure, i.e. the
// allocation-free profile kernel) and through the string-multiset reference
// oracle.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/similarity/field_similarity.h"
#include "tests/reference_measures.h"

namespace tglink {
namespace {

/// Bigram Dice through both implementations; they must agree bit for bit.
double Bigram(std::string_view a, std::string_view b) {
  const double lib = ComputeMeasure(Measure::kQGramDice, a, b);
  EXPECT_EQ(lib, reference::QGramDice(a, b, 2)) << a << " / " << b;
  return lib;
}

double Trigram(std::string_view a, std::string_view b) {
  const double lib = ComputeMeasure(Measure::kTrigramDice, a, b);
  EXPECT_EQ(lib, reference::QGramDice(a, b, 3)) << a << " / " << b;
  return lib;
}

TEST(QGramTest, BigramDecompositionPadded) {
  // "#ab$" -> {"#a", "ab", "b$"} sorted.
  EXPECT_EQ(reference::PaddedQGrams("ab", 2),
            (std::vector<std::string>{"#a", "ab", "b$"}));
  // "##a$$" -> {"##a", "#a$", "a$$"}.
  EXPECT_EQ(reference::PaddedQGrams("a", 3),
            (std::vector<std::string>{"##a", "#a$", "a$$"}));
}

TEST(QGramTest, IdenticalStringsScoreOne) {
  EXPECT_DOUBLE_EQ(Bigram("ashworth", "ashworth"), 1.0);
  EXPECT_DOUBLE_EQ(Bigram("", ""), 1.0);
  EXPECT_DOUBLE_EQ(Trigram("ab", "ab"), 1.0);
}

TEST(QGramTest, EmptyVsNonEmptyScoresZero) {
  EXPECT_DOUBLE_EQ(Bigram("", "x"), 0.0);
  EXPECT_DOUBLE_EQ(Bigram("x", ""), 0.0);
  EXPECT_DOUBLE_EQ(Trigram("", "x"), 0.0);
}

TEST(QGramTest, DisjointStringsScoreZero) {
  // Different first and last characters: not even a sentinel gram shared.
  EXPECT_DOUBLE_EQ(Bigram("abab", "cdcd"), 0.0);
  EXPECT_DOUBLE_EQ(Trigram("abab", "cdcd"), 0.0);
}

TEST(QGramTest, KnownDiceValue) {
  // Padded bigrams: "smith" -> {#s,sm,mi,it,th,h$}, "smyth" ->
  // {#s,sm,my,yt,th,h$}; common = 4, dice = 2*4/(6+6).
  EXPECT_DOUBLE_EQ(Bigram("smith", "smyth"), 2.0 * 4 / 12);
  // Padded trigrams: {##s,#sm,smi,mit,ith,th$,h$$} vs
  // {##s,#sm,smy,myt,yth,th$,h$$}; common = 4, dice = 2*4/(7+7).
  EXPECT_DOUBLE_EQ(Trigram("smith", "smyth"), 2.0 * 4 / 14);
}

TEST(QGramTest, MultisetSemanticsCountDuplicates) {
  // "aaa" -> {#a,aa,aa,a$}; "aa" -> {#a,aa,a$}. common = 3 (one "aa" is
  // unmatched), dice = 2*3/(4+3).
  EXPECT_DOUBLE_EQ(Bigram("aaa", "aa"), 2.0 * 3 / 7);
}

TEST(QGramTest, SentinelBytesInInputDoNotCollideWithPadding) {
  // A literal '#' or '$' in the value is compared like any other byte.
  // padded("a#") = {"#a","a#","#$"}, padded("a") = {"#a","a$"}: one shared
  // gram -> dice = 2*1/(3+2).
  EXPECT_DOUBLE_EQ(Bigram("a#", "a"), 2.0 * 1 / (3 + 2));
  // padded("$a") = {"#$","$a","a$"}, padded("a") = {"#a","a$"}.
  EXPECT_DOUBLE_EQ(Bigram("$a", "a"), 2.0 * 1 / (3 + 2));
}

TEST(QGramTest, ArbitraryBytesMatchTheOracle) {
  // Whole-byte range, embedded NULs, high-bit and multi-byte UTF-8 values:
  // the packed uint32_t profiles must count exactly the string grams.
  const std::vector<std::string> corpus = {
      "",       "a",         "ab",          "abc",     "a#b$",
      "###",    "$$$",       "#$",          "aaaaaaa", "aaaaaaaa",
      "smith",  "smyth",     "ashworth",    "ashword", "elizabeth",
      "\x01\xff\x80", std::string("a\0b", 3), "\xc3\xa9\xc3\xa8"};
  for (const std::string& a : corpus) {
    for (const std::string& b : corpus) {
      (void)Bigram(a, b);
      (void)Trigram(a, b);
    }
  }
}

// Property sweep: symmetry and range over a pool of name pairs.
class QGramPropertyTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(QGramPropertyTest, SymmetricAndBounded) {
  const auto& [a, b] = GetParam();
  for (const Measure measure : {Measure::kQGramDice, Measure::kTrigramDice}) {
    const double ab = ComputeMeasure(measure, a, b);
    const double ba = ComputeMeasure(measure, b, a);
    EXPECT_EQ(ab, ba);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_EQ(ab, reference::MeasureValue(measure, a, b));
    EXPECT_DOUBLE_EQ(ComputeMeasure(measure, a, a), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NamePairs, QGramPropertyTest,
    ::testing::Values(std::make_pair("ashworth", "ashword"),
                      std::make_pair("elizabeth", "elisabeth"),
                      std::make_pair("john", "jane"),
                      std::make_pair("a", "ab"),
                      std::make_pair("x", "x"),
                      std::make_pair("", "nonempty"),
                      std::make_pair("riley", "reilly"),
                      std::make_pair("smith", "schmidt")));

}  // namespace
}  // namespace tglink
