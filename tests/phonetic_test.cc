#include "tglink/similarity/phonetic.h"

#include <string>

#include <gtest/gtest.h>

namespace tglink {
namespace {

TEST(SoundexTest, TextbookCodes) {
  EXPECT_EQ(Soundex("robert"), "R163");
  EXPECT_EQ(Soundex("rupert"), "R163");
  EXPECT_EQ(Soundex("ashcraft"), "A261");  // h is transparent
  EXPECT_EQ(Soundex("ashcroft"), "A261");
  EXPECT_EQ(Soundex("tymczak"), "T522");
  EXPECT_EQ(Soundex("pfister"), "P236");
  EXPECT_EQ(Soundex("honeyman"), "H555");
}

TEST(SoundexTest, SoundAlikeSurnamesShareCodes) {
  EXPECT_EQ(Soundex("smith"), Soundex("smyth"));
  EXPECT_EQ(Soundex("riley"), Soundex("reilly"));
  EXPECT_EQ(Soundex("ashworth"), Soundex("ashwerth"));
}

TEST(SoundexTest, CaseAndPunctuationInsensitive) {
  EXPECT_EQ(Soundex("O'Brien"), Soundex("obrien"));
  EXPECT_EQ(Soundex("SMITH"), Soundex("smith"));
}

TEST(SoundexTest, EmptyAndNonAlphabetic) {
  EXPECT_EQ(Soundex(""), "");
  EXPECT_EQ(Soundex("123"), "");
  EXPECT_EQ(Soundex("a"), "A000");
}

TEST(SoundexTest, AlwaysFourCharacters) {
  for (const char* name : {"lee", "x", "wolstenholme", "kay", "butterworth"}) {
    EXPECT_EQ(Soundex(name).size(), 4u) << name;
  }
}

}  // namespace
}  // namespace tglink
