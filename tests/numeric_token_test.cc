#include <gtest/gtest.h>

#include "tglink/similarity/field_similarity.h"
#include "tglink/similarity/numeric.h"
#include "tglink/similarity/token.h"
#include "tests/reference_measures.h"

namespace tglink {
namespace {

/// Monge-Elkan with Jaro-Winkler inner through the library (ComputeMeasure)
/// and the reference oracle; they must agree bit for bit.
double MongeElkan(std::string_view a, std::string_view b) {
  const double lib = ComputeMeasure(Measure::kMongeElkan, a, b);
  EXPECT_EQ(lib, MongeElkanJaroWinkler(a, b)) << a << " / " << b;
  EXPECT_EQ(lib, reference::MongeElkanJaroWinkler(a, b)) << a << " / " << b;
  return lib;
}

TEST(AbsDiffSimilarityTest, LinearDecay) {
  EXPECT_DOUBLE_EQ(AbsDiffSimilarity(10, 10, 5), 1.0);
  EXPECT_DOUBLE_EQ(AbsDiffSimilarity(10, 12.5, 5), 0.5);
  EXPECT_DOUBLE_EQ(AbsDiffSimilarity(10, 15, 5), 0.0);
  EXPECT_DOUBLE_EQ(AbsDiffSimilarity(10, 20, 5), 0.0);
  EXPECT_DOUBLE_EQ(AbsDiffSimilarity(10, 7.5, 5), 0.5);  // symmetric
}

TEST(AgeDiffSimilarityTest, ToleranceSemantics) {
  // Tolerance 3: deviation 3 still scores positive, deviation 4 scores 0.
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, 31), 1.0);
  EXPECT_GT(AgeDiffSimilarity(31, 34), 0.0);
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, 35), 0.0);
  // Sign matters: +31 vs -31 is a deviation of 62.
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, -31), 0.0);
}

TEST(TemporalAgeSimilarityTest, ExpectsAgeToAdvanceByGap) {
  // Aged 39 in 1871 -> expected 49 in 1881.
  EXPECT_DOUBLE_EQ(TemporalAgeSimilarity(39, 49, 10), 1.0);
  EXPECT_GT(TemporalAgeSimilarity(39, 47, 10), 0.0);   // misstated by 2
  EXPECT_DOUBLE_EQ(TemporalAgeSimilarity(39, 39, 10), 0.0);  // didn't age
  EXPECT_GT(TemporalAgeSimilarity(39, 52, 10, 3), 0.0);
  EXPECT_DOUBLE_EQ(TemporalAgeSimilarity(39, 53, 10, 3), 0.0);
}

TEST(MongeElkanTest, ExactTokensScoreOne) {
  EXPECT_DOUBLE_EQ(MongeElkan("mill street", "mill street"), 1.0);
}

TEST(MongeElkanTest, TokenOrderInsensitive) {
  EXPECT_DOUBLE_EQ(MongeElkan("street mill", "mill street"), 1.0);
}

TEST(MongeElkanTest, EmptyConventions) {
  EXPECT_DOUBLE_EQ(MongeElkan("", ""), 1.0);
  EXPECT_DOUBLE_EQ(MongeElkan("", "mill street"), 0.0);
}

TEST(MongeElkanTest, PartialTokenOverlapScoresBetweenZeroAndOne) {
  const double sim = MongeElkan("12 mill street", "14 mill lane");
  EXPECT_GT(sim, 0.4);
  EXPECT_LT(sim, 1.0);
}

TEST(MongeElkanTest, SymmetricByConstruction) {
  const char* pairs[][2] = {{"12 mill street", "mill street"},
                            {"cotton weaver", "cotton spinner"},
                            {"a b c", "c d"}};
  for (const auto& p : pairs) {
    EXPECT_DOUBLE_EQ(MongeElkan(p[0], p[1]), MongeElkan(p[1], p[0]));
  }
}

TEST(MongeElkanTest, CustomInnerMeasure) {
  // With an exact inner measure, Monge-Elkan degenerates to average best
  // token equality.
  const auto exact = [](std::string_view a, std::string_view b) {
    return a == b ? 1.0 : 0.0;
  };
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity("a b", "b c", exact), 0.5);
}

}  // namespace
}  // namespace tglink
