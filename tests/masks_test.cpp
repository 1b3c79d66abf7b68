#include "core/masks.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace ppg::core {
namespace {

using tok::Tokenizer;

bool contains(std::span<const int> ids, int id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TEST(ClassTokenSets, PartitionCharTokensExactly) {
  const auto& sets = ClassTokenSets::instance();
  for (const auto* list : {&sets.letter, &sets.digit, &sets.special})
    EXPECT_TRUE(std::is_sorted(list->begin(), list->end()));
  for (int id = 0; id < Tokenizer::kVocabSize; ++id) {
    const int membership = int(contains(sets.letter, id)) +
                           int(contains(sets.digit, id)) +
                           int(contains(sets.special, id));
    if (Tokenizer::is_char_token(id)) {
      EXPECT_EQ(membership, 1) << "token " << id;
    } else {
      EXPECT_EQ(membership, 0) << "non-char token " << id;
    }
  }
  EXPECT_EQ(sets.letter.size(), 52u);
  EXPECT_EQ(sets.digit.size(), 10u);
  EXPECT_EQ(sets.special.size(), 32u);
  EXPECT_EQ(sets.eos, std::vector<int>{Tokenizer::kEos});
}

TEST(ClassTokenSets, OfSelectsCorrectSet) {
  const auto& sets = ClassTokenSets::instance();
  const auto has = [&](pcfg::CharClass c, char ch) {
    return contains(sets.of(c), Tokenizer::char_token(ch));
  };
  EXPECT_TRUE(has(pcfg::CharClass::kLetter, 'a'));
  EXPECT_TRUE(has(pcfg::CharClass::kDigit, '7'));
  EXPECT_TRUE(has(pcfg::CharClass::kSpecial, '!'));
  EXPECT_FALSE(has(pcfg::CharClass::kLetter, '7'));
}

/// Whether `allowed` lets generation step `step` take token `id`.
bool allows(const gpt::AllowedTokens& allowed, gpt::Index step, int id) {
  return contains(allowed.at(step), id);
}

TEST(PatternMask, AllowsOnlyPatternClassAtEachStep) {
  const auto pattern = *pcfg::parse_pattern("L1N1S1");
  const auto mask = make_pattern_mask(pattern);
  // Step 0: letters only.
  EXPECT_TRUE(allows(mask, 0, Tokenizer::char_token('a')));
  EXPECT_FALSE(allows(mask, 0, Tokenizer::char_token('1')));
  EXPECT_FALSE(allows(mask, 0, Tokenizer::kEos));
  // Step 1: digits only.
  EXPECT_TRUE(allows(mask, 1, Tokenizer::char_token('5')));
  EXPECT_FALSE(allows(mask, 1, Tokenizer::char_token('a')));
  // Step 2: specials only.
  EXPECT_TRUE(allows(mask, 2, Tokenizer::char_token('#')));
  EXPECT_FALSE(allows(mask, 2, Tokenizer::char_token('z')));
}

TEST(PatternMask, ForcesEosAfterPatternEnd) {
  const auto pattern = *pcfg::parse_pattern("N2");
  const auto mask = make_pattern_mask(pattern);
  // Step 2 is the first past the end; the last entry covers every later one.
  for (const gpt::Index step : {2, 3, 10}) {
    for (int id = 0; id < Tokenizer::kVocabSize; ++id) {
      EXPECT_EQ(allows(mask, step, id), id == Tokenizer::kEos)
          << "step " << step << " token " << id;
    }
  }
}

TEST(PatternMask, OffsetShiftsPosition) {
  const auto pattern = *pcfg::parse_pattern("L2N2");
  // Two characters already fixed by the prefix: step 0 is position 2 (N).
  const auto mask = make_pattern_mask(pattern, 2);
  EXPECT_TRUE(allows(mask, 0, Tokenizer::char_token('3')));
  EXPECT_FALSE(allows(mask, 0, Tokenizer::char_token('a')));
  // Step 2 is past the end: EOS only.
  EXPECT_TRUE(allows(mask, 2, Tokenizer::kEos));
  EXPECT_FALSE(allows(mask, 2, Tokenizer::char_token('3')));
}

TEST(PatternMask, NeverUnmasksSpecialOrPatternTokens) {
  const auto pattern = *pcfg::parse_pattern("L3");
  const auto mask = make_pattern_mask(pattern);
  for (const int id : {Tokenizer::kBos, Tokenizer::kSep, Tokenizer::kPad,
                       Tokenizer::pattern_token(pcfg::CharClass::kLetter, 3),
                       Tokenizer::kReserved})
    EXPECT_FALSE(allows(mask, 0, id)) << id;
}

}  // namespace
}  // namespace ppg::core
