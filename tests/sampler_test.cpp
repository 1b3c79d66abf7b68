#include "gpt/sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "core/masks.h"
#include "test_util.h"
#include "tokenizer/tokenizer.h"

namespace ppg::gpt {
namespace {

using tok::Tokenizer;

/// Samples among every token of a short `logits` row.
int sample_any(std::span<const float> logits, Rng& rng) {
  std::vector<int> all(logits.size());
  std::iota(all.begin(), all.end(), 0);
  return sample_from_logits(logits, all, rng);
}

TEST(SampleFromLogits, FollowsDistributionAtUnitTemperature) {
  // Two tokens with logit gap log(3): expect ~75/25 split.
  const std::vector<float> logits = {std::log(3.f), 0.f};
  Rng rng(2);
  int zero = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (sample_any(logits, rng) == 0) ++zero;
  EXPECT_NEAR(double(zero) / n, 0.75, 0.02);
}

TEST(SampleFromLogits, MaskedTokensNeverSampled) {
  // Token 0 has the largest logit but is not listed.
  const std::vector<float> logits = {5.f, 4.f, 3.f};
  const std::vector<int> allowed = {1, 2};
  Rng rng(5);
  for (int i = 0; i < 400; ++i)
    EXPECT_NE(sample_from_logits(logits, allowed, rng), 0);
}

TEST(SampleFromLogits, AllMaskedReturnsSentinel) {
  // An empty list draws nothing.
  const std::vector<float> logits = {0.5f, 1.f, 2.f};
  Rng rng(6);
  EXPECT_EQ(sample_from_logits(logits, {}, rng), -1);
}

TEST(SampleRows, NullTableDrawsLikeEmptyTable) {
  // A row left without a table draws from every token, exactly as a row
  // pointing at an empty table does.
  const GptModel m(Config::tiny(), 19);
  const std::vector<int> prefix = {Tokenizer::kBos};
  const AllowedTokens empty;
  std::vector<std::vector<int>> drawn[2];
  for (int run = 0; run < 2; ++run) {
    InferenceSession session(m);
    session.prefill(std::vector<PrefillRow>(3, PrefillRow{prefix}));
    Rng rng(20);
    std::vector<SampleRow> rows(3);
    for (SampleRow& row : rows) row = {run == 0 ? nullptr : &empty, &rng};
    drawn[run].resize(rows.size());
    sample_rows(session, rows,
                [&](std::size_t i, std::span<const int> generated) {
                  drawn[run][i].assign(generated.begin(), generated.end());
                });
  }
  EXPECT_EQ(drawn[0], drawn[1]);
  for (const auto& tokens : drawn[0]) EXPECT_FALSE(tokens.empty());
}

TEST(SamplePasswords, ReturnsRequestedCount) {
  const GptModel m(Config::tiny(), 7);
  Rng rng(8);
  const std::vector<int> prefix = {Tokenizer::kBos};
  SampleOptions opts;
  opts.batch_size = 16;
  SampleStats stats;
  const auto pws = sample_passwords(m, prefix, 40, rng, opts, {}, &stats);
  // An untrained model emits mostly-invalid sequences; the budget may stop
  // short, but whatever is returned must decode to nonempty strings.
  EXPECT_LE(pws.size(), 40u);
  EXPECT_GE(stats.sequences_run, pws.size());
  for (const auto& pw : pws) EXPECT_FALSE(pw.empty());
}

TEST(SamplePasswords, ZeroCountIsEmpty) {
  const GptModel m(Config::tiny(), 9);
  Rng rng(10);
  const std::vector<int> prefix = {Tokenizer::kBos};
  EXPECT_TRUE(sample_passwords(m, prefix, 0, rng).empty());
}

TEST(SamplePasswords, PatternMaskForcesConformance) {
  const GptModel m(Config::tiny(), 11);  // untrained: worst case for masks
  Rng rng(12);
  const auto pattern = *pcfg::parse_pattern("L3N2");
  const std::vector<int> prefix = {Tokenizer::kBos};
  const auto mask = core::make_pattern_mask(pattern);
  SampleOptions opts;
  opts.batch_size = 8;
  const auto pws = sample_passwords(m, prefix, 30, rng, opts, mask);
  EXPECT_FALSE(pws.empty());
  for (const auto& pw : pws)
    EXPECT_TRUE(pcfg::matches_pattern(pw, pattern)) << pw;
}

TEST(SamplePasswords, MaskWithOffsetSkipsPrefixChars) {
  const GptModel m(Config::tiny(), 13);
  Rng rng(14);
  const auto pattern = *pcfg::parse_pattern("L2N2");
  // Prefix already contains "a": remaining suffix is L1N2.
  std::vector<int> prefix = {Tokenizer::kBos, Tokenizer::char_token('a')};
  const auto mask = core::make_pattern_mask(pattern, 1);
  const auto pws = sample_passwords(m, prefix, 20, rng, {}, mask);
  for (const auto& pw : pws) {
    EXPECT_TRUE(pcfg::matches_pattern(pw, pattern)) << pw;
    EXPECT_EQ(pw[0], 'a');
  }
}

TEST(SamplePasswords, DeterministicForSameRngSeed) {
  const GptModel m(Config::tiny(), 15);
  const auto pattern = *pcfg::parse_pattern("L4");
  const std::vector<int> prefix = {Tokenizer::kBos};
  const auto mask = core::make_pattern_mask(pattern);
  Rng r1(99), r2(99);
  const auto a = sample_passwords(m, prefix, 10, r1, {}, mask);
  const auto b = sample_passwords(m, prefix, 10, r2, {}, mask);
  EXPECT_EQ(a, b);
}

TEST(SamplePasswords, RejectsResumeStateDeeperThanPrefix) {
  // A snapshot two tokens past the prefix cannot be cut back to it; using
  // it would sample the first token from logits the prefix never produced.
  const GptModel m(Config::tiny(), 18);
  const auto pattern = *pcfg::parse_pattern("L4N2");
  const std::vector<int> prefix = Tokenizer::encode_generation_prefix(pattern);
  std::vector<int> deeper = prefix;
  deeper.push_back(Tokenizer::char_token('T'));
  deeper.push_back(Tokenizer::char_token('F'));
  InferenceSession s(m);
  testing::prefill_one(s, deeper);
  const KvState state = s.snapshot(0);
  ASSERT_GT(state.len(), static_cast<Index>(prefix.size()));
  SampleOptions opts;
  opts.batch_size = 4;
  Rng rng(11);
  EXPECT_THROW(sample_passwords(m, prefix, 8, rng, opts,
                                core::make_pattern_mask(pattern), nullptr,
                                &state),
               std::invalid_argument);
}

TEST(SamplePasswords, StatsCountInvalids) {
  const GptModel m(Config::tiny(), 16);
  Rng rng(17);
  const std::vector<int> prefix = {Tokenizer::kBos};
  SampleStats stats;
  sample_passwords(m, prefix, 20, rng, {}, {}, &stats);
  EXPECT_GT(stats.sequences_run, 0u);
}

}  // namespace
}  // namespace ppg::gpt
