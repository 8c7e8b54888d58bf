#include <gtest/gtest.h>

#include "tglink/similarity/numeric.h"

namespace tglink {
namespace {

TEST(AgeDiffSimilarityTest, ToleranceSemantics) {
  // Tolerance 3: deviation 3 still scores positive, deviation 4 scores 0.
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, 31), 1.0);
  EXPECT_GT(AgeDiffSimilarity(31, 34), 0.0);
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, 35), 0.0);
  // Sign matters: +31 vs -31 is a deviation of 62.
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, -31), 0.0);
}

TEST(AgeDiffSimilarityTest, LinearDecaySymmetricInDeviation) {
  // Tolerance 3 decays over 4 years: deviation 2 either way scores 0.5.
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, 33), 0.5);
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, 29), 0.5);
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, 32), 0.75);
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, 41, 9), 0.0);
  EXPECT_DOUBLE_EQ(AgeDiffSimilarity(31, 36, 9), 0.5);
}

TEST(TemporalAgeSimilarityTest, ExpectsAgeToAdvanceByGap) {
  // Aged 39 in 1871 -> expected 49 in 1881.
  EXPECT_DOUBLE_EQ(TemporalAgeSimilarity(39, 49, 10), 1.0);
  EXPECT_GT(TemporalAgeSimilarity(39, 47, 10), 0.0);   // misstated by 2
  EXPECT_DOUBLE_EQ(TemporalAgeSimilarity(39, 39, 10), 0.0);  // didn't age
  EXPECT_GT(TemporalAgeSimilarity(39, 52, 10, 3), 0.0);
  EXPECT_DOUBLE_EQ(TemporalAgeSimilarity(39, 53, 10, 3), 0.0);
}

}  // namespace
}  // namespace tglink
