// Cross-measure property suite: every Measure in the library must behave
// like a similarity — bounded to [0,1], symmetric, reflexive (1 on equal
// non-empty values), and following the empty-value conventions. Runs as a
// parameterized sweep over the full (measure × value-pair) grid.

#include <cctype>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "tglink/similarity/field_similarity.h"

namespace tglink {
namespace {

const Measure kAllMeasures[] = {
    Measure::kExact,       Measure::kQGramDice, Measure::kTrigramDice,
    Measure::kLevenshtein, Measure::kDamerau,   Measure::kJaro,
    Measure::kJaroWinkler, Measure::kSoundexEqual,
};

const std::pair<const char*, const char*> kValuePairs[] = {
    {"ashworth", "ashworth"},   {"ashworth", "ashwerth"},
    {"elizabeth", "betsy"},     {"john", "john"},
    {"j", "j"},                 {"j", "k"},
    {"12 mill street", "mill street"},
    {"cotton weaver", "power loom weaver"},
    {"a", "abcdefghij"},        {"riley", "reilly"},
    {"x", ""},                  {"", ""},
};

class MeasurePropertyTest
    : public ::testing::TestWithParam<std::tuple<Measure, size_t>> {};

TEST_P(MeasurePropertyTest, BoundedSymmetricReflexive) {
  const Measure measure = std::get<0>(GetParam());
  const auto& [a, b] = kValuePairs[std::get<1>(GetParam())];

  const double ab = ComputeMeasure(measure, a, b);
  const double ba = ComputeMeasure(measure, b, a);
  EXPECT_GE(ab, 0.0) << MeasureName(measure);
  EXPECT_LE(ab, 1.0) << MeasureName(measure);
  EXPECT_DOUBLE_EQ(ab, ba) << MeasureName(measure);

  // Reflexivity on both operands.
  for (const char* v : {a, b}) {
    EXPECT_DOUBLE_EQ(ComputeMeasure(measure, v, v), 1.0)
        << MeasureName(measure) << " on '" << v << "'";
  }

  // Empty-value conventions.
  const std::string_view sa(a), sb(b);
  if (sa.empty() != sb.empty()) {
    EXPECT_DOUBLE_EQ(ab, 0.0) << MeasureName(measure);
  }
  if (sa.empty() && sb.empty()) {
    EXPECT_DOUBLE_EQ(ab, 1.0) << MeasureName(measure);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasuresAllPairs, MeasurePropertyTest,
    ::testing::Combine(::testing::ValuesIn(kAllMeasures),
                       ::testing::Range<size_t>(0, std::size(kValuePairs))),
    [](const ::testing::TestParamInfo<std::tuple<Measure, size_t>>& info) {
      std::string name = MeasureName(std::get<0>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_pair" + std::to_string(std::get<1>(info.param));
    });

TEST(MeasureNamesTest, AllDistinctAndNonEmpty) {
  std::set<std::string> names;
  for (Measure measure : kAllMeasures) {
    const std::string name = MeasureName(measure);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << name << " duplicated";
  }
}

// A similarity used for matching should rank a true spelling variant above
// an unrelated name — check this discrimination property for the fuzzy
// string measures.
class MeasureDiscriminationTest : public ::testing::TestWithParam<Measure> {};

TEST_P(MeasureDiscriminationTest, VariantOutranksUnrelated) {
  const Measure measure = GetParam();
  const double variant = ComputeMeasure(measure, "ashworth", "ashwerth");
  const double unrelated = ComputeMeasure(measure, "ashworth", "pilkington");
  EXPECT_GT(variant, unrelated) << MeasureName(measure);
}

INSTANTIATE_TEST_SUITE_P(
    FuzzyMeasures, MeasureDiscriminationTest,
    ::testing::Values(Measure::kQGramDice, Measure::kTrigramDice,
                      Measure::kLevenshtein, Measure::kDamerau, Measure::kJaro,
                      Measure::kJaroWinkler));

}  // namespace
}  // namespace tglink
