#include "gpt/infer.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "gpt/sampler.h"
#include "nn/graph.h"
#include "test_util.h"

namespace ppg::gpt {
namespace {

/// Reference logits via the training-path forward for a single sequence.
std::vector<float> training_logits_last(const GptModel& m,
                                        const std::vector<int>& seq) {
  nn::Graph g;
  const nn::Tensor logits =
      m.forward(g, seq, 1, static_cast<Index>(seq.size()));
  const Index v = m.config().vocab;
  const Index last = static_cast<Index>(seq.size()) - 1;
  std::vector<float> out(static_cast<std::size_t>(v));
  for (Index j = 0; j < v; ++j) out[static_cast<std::size_t>(j)] =
      logits.at(last, j);
  return out;
}

TEST(InferenceSession, MatchesTrainingForward) {
  // The KV-cache incremental path must reproduce the training-path logits
  // to float tolerance — the strongest consistency check in the suite.
  const GptModel m(Config::tiny(), 42);
  const std::vector<int> seq = {0, 17, 41, 60, 99, 1, 77};
  InferenceSession s(m);
  s.reset(1);
  std::span<const float> logits;
  for (const int t : seq) {
    const int tok = t;
    logits = s.step(std::span<const int>(&tok, 1));
  }
  const auto ref = training_logits_last(m, seq);
  ASSERT_EQ(logits.size(), ref.size());
  for (std::size_t j = 0; j < ref.size(); ++j)
    EXPECT_NEAR(logits[j], ref[j], 2e-3f) << "logit " << j;
}

TEST(InferenceSession, MatchesTrainingForwardAtEveryPosition) {
  const GptModel m(Config::tiny(), 43);
  const std::vector<int> seq = {0, 5, 41, 42};
  // Training-path logits for all positions.
  nn::Graph g;
  const nn::Tensor full =
      m.forward(g, seq, 1, static_cast<Index>(seq.size()));
  InferenceSession s(m);
  s.reset(1);
  for (std::size_t p = 0; p < seq.size(); ++p) {
    const int tok = seq[p];
    const auto logits = s.step(std::span<const int>(&tok, 1));
    for (Index j = 0; j < m.config().vocab; ++j)
      EXPECT_NEAR(logits[static_cast<std::size_t>(j)],
                  full.at(static_cast<Index>(p), j), 2e-3f)
          << "pos " << p << " logit " << j;
  }
}

TEST(InferenceSession, BatchRowsAreIndependent) {
  const GptModel m(Config::tiny(), 44);
  // Two different sequences in one batch must match two solo sessions.
  const std::vector<int> a = {0, 41, 50}, b = {0, 99, 1};
  InferenceSession solo(m);
  solo.reset(1);
  std::vector<float> ra, rb;
  for (const int t : a) {
    const auto l = solo.step(std::span<const int>(&t, 1));
    ra.assign(l.begin(), l.end());
  }
  solo.reset(1);
  for (const int t : b) {
    const auto l = solo.step(std::span<const int>(&t, 1));
    rb.assign(l.begin(), l.end());
  }
  InferenceSession both(m);
  both.reset(2);
  std::span<const float> l;
  for (std::size_t p = 0; p < a.size(); ++p) {
    const std::vector<int> toks = {a[p], b[p]};
    l = both.step(toks);
  }
  const Index v = m.config().vocab;
  for (Index j = 0; j < v; ++j) {
    EXPECT_NEAR(l[static_cast<std::size_t>(j)], ra[static_cast<std::size_t>(j)],
                1e-4f);
    EXPECT_NEAR(l[static_cast<std::size_t>(v + j)],
                rb[static_cast<std::size_t>(j)], 1e-4f);
  }
}

TEST(InferenceSession, PrimeEqualsManualSteps) {
  // Three rows primed to one prefix by prefill (which steps the first and
  // copies it to the others) read exactly like three rows stepped token by
  // token.
  const GptModel m(Config::tiny(), 45);
  const std::vector<int> prefix = {0, 7, 41};
  InferenceSession s1(m);
  s1.prefill(std::vector<PrefillRow>(3, PrefillRow{prefix}));
  InferenceSession s2(m);
  s2.reset(3);
  std::span<const float> l;
  for (const int t : prefix) {
    const std::vector<int> toks(3, t);
    l = s2.step(toks);
  }
  const auto v = static_cast<std::size_t>(m.config().vocab);
  for (Index r = 0; r < 3; ++r) {
    const auto a = s1.logits_row(r);
    for (std::size_t j = 0; j < v; ++j)
      EXPECT_EQ(a[j], l[static_cast<std::size_t>(r) * v + j]);
  }
}

TEST(InferenceSession, GuardsAgainstMisuse) {
  const GptModel m(Config::tiny(), 46);
  InferenceSession s(m);
  const int tok = 0;
  EXPECT_THROW(s.step(std::span<const int>(&tok, 1)), std::logic_error);
  s.reset(2);
  EXPECT_THROW(s.step(std::span<const int>(&tok, 1)), std::invalid_argument);
  EXPECT_THROW(s.reset(0), std::invalid_argument);
}

TEST(InferenceSession, RejectsOutOfRangeToken) {
  const GptModel m(Config::tiny(), 47);
  InferenceSession s(m);
  s.reset(1);
  const int bad = 999;
  EXPECT_THROW(s.step(std::span<const int>(&bad, 1)), std::invalid_argument);
}

TEST(InferenceSession, ContextExhaustionThrows) {
  const GptModel m(Config::tiny(), 48);  // context 16
  InferenceSession s(m);
  s.reset(1);
  const int tok = 0;
  for (Index i = 0; i < m.config().context; ++i)
    s.step(std::span<const int>(&tok, 1));
  EXPECT_THROW(s.step(std::span<const int>(&tok, 1)), std::runtime_error);
}

TEST(InferenceSession, ResetRestartsPosition) {
  const GptModel m(Config::tiny(), 49);
  InferenceSession s(m);
  s.reset(1);
  const int tok = 3;
  s.step(std::span<const int>(&tok, 1));
  EXPECT_EQ(s.position(0), 1);
  s.reset(4);
  EXPECT_EQ(s.position(0), 0);
  EXPECT_EQ(s.batch(), 4);
}

TEST(InferenceSession, RaggedRowsMatchSoloRuns) {
  // Rows at different positions share steps, and a row fed kIdle sits the
  // step out: every row's logits must equal those of the same sequence run
  // alone, bitwise, and an idle row keeps its position and logits.
  const GptModel m(Config::tiny(), 56);
  const std::vector<std::vector<int>> seqs = {
      {0, 41, 50, 7, 9}, {0, 99}, {0, 3, 5, 8}};
  std::vector<std::vector<float>> solo(seqs.size());
  for (std::size_t r = 0; r < seqs.size(); ++r) {
    InferenceSession s(m);
    s.reset(1);
    for (const int t : seqs[r]) {
      const auto l = s.step(std::span<const int>(&t, 1));
      solo[r].assign(l.begin(), l.end());
    }
  }
  // Row 1 starts two steps late and row 2 sits out step 2, so the rows
  // run at three different positions and finish at different steps.
  constexpr int x = InferenceSession::kIdle;
  const std::vector<std::vector<int>> schedule = {
      {0, x, 0}, {41, x, 3}, {50, 0, x}, {7, 99, 5}, {9, x, 8}};
  InferenceSession ragged(m);
  ragged.reset(3);
  std::vector<std::size_t> fed(seqs.size(), 0);
  for (const auto& tokens : schedule) {
    std::vector<std::vector<float>> before(seqs.size());
    for (std::size_t r = 0; r < seqs.size(); ++r)
      if (fed[r] > 0) {
        const auto l = ragged.logits_row(static_cast<Index>(r));
        before[r].assign(l.begin(), l.end());
      }
    ragged.step(tokens);
    for (std::size_t r = 0; r < seqs.size(); ++r) {
      if (tokens[r] == InferenceSession::kIdle) {
        if (fed[r] > 0) {
          const auto l = ragged.logits_row(static_cast<Index>(r));
          EXPECT_TRUE(std::equal(before[r].begin(), before[r].end(), l.begin()))
              << "idle row " << r << " lost its logits";
        }
        continue;
      }
      ASSERT_EQ(tokens[r], seqs[r][fed[r]]);
      ++fed[r];
    }
    for (std::size_t r = 0; r < seqs.size(); ++r)
      EXPECT_EQ(ragged.position(static_cast<Index>(r)),
                static_cast<Index>(fed[r]));
  }
  for (std::size_t r = 0; r < seqs.size(); ++r) {
    ASSERT_EQ(fed[r], seqs[r].size());
    const auto l = ragged.logits_row(static_cast<Index>(r));
    EXPECT_TRUE(std::equal(solo[r].begin(), solo[r].end(), l.begin()))
        << "row " << r;
  }
  // A step that feeds no row computes nothing and keeps every row.
  const std::vector<int> idle(3, InferenceSession::kIdle);
  ragged.step(idle);
  EXPECT_EQ(ragged.position(1), 2);
}

TEST(InferenceSession, ShrinkingResetReusesBuffers) {
  const GptModel m(Config::tiny(), 54);
  InferenceSession s(m);
  s.reset(8);
  const std::vector<int> t8(8, 3);
  const float* buf = s.step(t8).data();
  // A smaller batch must not reallocate: the logits span aliases the same
  // storage and is sized to the new batch.
  s.reset(3);
  const std::vector<int> t3(3, 5);
  const auto sp = s.step(t3);
  EXPECT_EQ(sp.data(), buf);
  EXPECT_EQ(sp.size(), static_cast<std::size_t>(3 * m.config().vocab));
  // Same-size reset reuses too.
  s.reset(8);
  EXPECT_EQ(s.step(t8).data(), buf);
}

TEST(InferenceSession, ShrunkBatchMatchesFreshSession) {
  const GptModel m(Config::tiny(), 55);
  InferenceSession reused(m);
  reused.reset(8);
  const std::vector<int> warm(8, 7);
  reused.step(warm);
  reused.step(warm);
  // Shrink and decode a different sequence; any stale-state leak from the
  // earlier batch-8 run would show up against a fresh session.
  const std::vector<int> seq = {0, 17, 41};
  InferenceSession fresh(m);
  reused.reset(2);
  fresh.reset(2);
  for (const int t : seq) {
    const std::vector<int> toks(2, t);
    const auto a = reused.step(toks);
    const auto b = fresh.step(toks);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  }
}

TEST(SequenceLogProb, MatchesManualChainRule) {
  const GptModel m(Config::tiny(), 51);
  const std::vector<int> seq = {0, 41, 55, 2};
  double manual = 0.0;
  for (std::size_t t = 0; t + 1 < seq.size(); ++t) {
    InferenceSession s(m);
    const auto logits =
        testing::prefill_one(s, std::span<const int>(seq.data(), t + 1));
    double z = 0.0;
    for (const float v : logits) z += std::exp(double(v));
    manual += double(logits[static_cast<std::size_t>(seq[t + 1])]) -
              std::log(z);
  }
  EXPECT_NEAR(sequence_log_prob(m, seq), manual, 1e-3);
}

TEST(SequenceLogProb, IsNegativeAndFinite) {
  const GptModel m(Config::tiny(), 52);
  const std::vector<int> seq = {0, 41, 42, 43, 2};
  const double lp = sequence_log_prob(m, seq);
  EXPECT_LT(lp, 0.0);
  EXPECT_GT(lp, -1e4);
}

TEST(SequenceLogProb, ValidatesInput) {
  const GptModel m(Config::tiny(), 53);
  EXPECT_THROW(sequence_log_prob(m, std::vector<int>{0}),
               std::invalid_argument);
  const std::vector<int> too_long(64, 0);
  EXPECT_THROW(sequence_log_prob(m, too_long), std::invalid_argument);
}

TEST(NextTokenDistribution, IsNormalisedAndDeterministic) {
  // The next-token distribution after a prefix: prefill's logits,
  // normalised over every token by masked_log_probs.
  const GptModel m(Config::tiny(), 50);
  const std::vector<int> prefix = {0, 5, 1};
  InferenceSession s1(m), s2(m);
  const auto l1 = testing::prefill_one(s1, prefix);
  const auto l2 = testing::prefill_one(s2, prefix);
  EXPECT_TRUE(std::equal(l1.begin(), l1.end(), l2.begin(), l2.end()));
  std::vector<double> log_probs;
  masked_log_probs(l1, AllowedTokens::every(), log_probs);
  ASSERT_EQ(log_probs.size(), l1.size());
  double sum = 0.0;
  for (const double lp : log_probs) {
    EXPECT_LE(lp, 0.0);
    sum += std::exp(lp);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace ppg::gpt
