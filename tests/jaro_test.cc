// Jaro and Jaro-Winkler — the standard matcher family for short personal
// names. Every value is checked through the library (ComputeMeasure, i.e.
// the scratch-buffer kernels) and the vector<bool> reference oracle.

#include <gtest/gtest.h>

#include "tglink/similarity/field_similarity.h"
#include "tests/reference_measures.h"

namespace tglink {
namespace {

double Jaro(std::string_view a, std::string_view b) {
  const double lib = ComputeMeasure(Measure::kJaro, a, b);
  EXPECT_EQ(lib, reference::JaroSimilarity(a, b)) << a << " / " << b;
  return lib;
}

double JaroWinkler(std::string_view a, std::string_view b) {
  const double lib = ComputeMeasure(Measure::kJaroWinkler, a, b);
  EXPECT_EQ(lib, reference::JaroWinklerSimilarity(a, b)) << a << " / " << b;
  return lib;
}

TEST(JaroTest, KnownValues) {
  // Classic textbook examples.
  EXPECT_NEAR(Jaro("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(Jaro("dixon", "dicksonx"), 0.7667, 1e-3);
  EXPECT_NEAR(Jaro("jellyfish", "smellyfish"), 0.8963, 1e-3);
}

TEST(JaroTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(Jaro("", ""), 1.0);
  EXPECT_DOUBLE_EQ(Jaro("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(Jaro("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(Jaro("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(Jaro("a", "a"), 1.0);
}

TEST(JaroWinklerTest, PrefixBoostsButNeverExceedsOne) {
  const double jaro = Jaro("ashworth", "ashword");
  const double jw = JaroWinkler("ashworth", "ashword");
  EXPECT_GT(jw, jaro);
  EXPECT_LE(jw, 1.0);
}

TEST(JaroWinklerTest, KnownValue) {
  EXPECT_NEAR(JaroWinkler("martha", "marhta"), 0.9611, 1e-3);
}

TEST(JaroWinklerTest, NoCommonPrefixEqualsJaro) {
  EXPECT_DOUBLE_EQ(JaroWinkler("xanthe", "anthex"), Jaro("xanthe", "anthex"));
}

TEST(JaroWinklerTest, PrefixBoostCapsAtFourCharacters) {
  // "aaaaa" vs "aaaab": jaro = (4/5 + 4/5 + 1) / 3; the shared prefix is
  // 4 long, so jw = jaro + 4 * 0.1 * (1 - jaro).
  const double jaro = (0.8 + 0.8 + 1.0) / 3.0;
  EXPECT_DOUBLE_EQ(Jaro("aaaaa", "aaaab"), jaro);
  EXPECT_DOUBLE_EQ(JaroWinkler("aaaaa", "aaaab"),
                   jaro + 4 * 0.1 * (1.0 - jaro));
}

class JaroPropertyTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(JaroPropertyTest, SymmetricBoundedAndReflexive) {
  const auto& [a, b] = GetParam();
  const double ab = Jaro(a, b);
  EXPECT_DOUBLE_EQ(ab, Jaro(b, a));
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
  EXPECT_DOUBLE_EQ(Jaro(a, a), 1.0);
  const double jw = JaroWinkler(a, b);
  EXPECT_DOUBLE_EQ(jw, JaroWinkler(b, a));
  EXPECT_GE(jw + 1e-12, ab);
  EXPECT_LE(jw, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    NamePairs, JaroPropertyTest,
    ::testing::Values(std::make_pair("ashworth", "ashword"),
                      std::make_pair("elizabeth", "elisabeth"),
                      std::make_pair("john", "jhon"),
                      std::make_pair("steve", "stephen"),
                      std::make_pair("", "x"),
                      std::make_pair("riley", "reilly"),
                      std::make_pair("ab", "ba"),
                      std::make_pair("smith", "smyth")));

}  // namespace
}  // namespace tglink
