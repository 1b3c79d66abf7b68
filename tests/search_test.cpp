// OrderedEnumerator property tests.
//
// The headline is the exactness property: on a tiny model with a small
// constrained alphabet, the enumerator's output must equal the brute-force
// descending-probability ranking of *every* reachable string — same
// passwords, same order, bitwise-identical log-probs — and must reproduce
// itself run over run. The rest locks down the anytime stop conditions,
// budget truncation (emissions stay an order-preserving subset with an
// honest admissible bound), and KV-pin hygiene under heap eviction
// (labelled `sanitize` so the TSan/ASan jobs run it).
#include "search/ordered.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/masks.h"
#include "gpt/infer.h"
#include "pcfg/pattern.h"
#include "tokenizer/tokenizer.h"

namespace ppg {
namespace {

using search::OrderedEnumerator;
using search::OrderedOptions;
using search::ScoredGuess;
using tok::Tokenizer;

/// Table for the brute-force universe: steps 0..max_len-1 allow {<EOS>,
/// 'a','b'}, later steps allow only <EOS>. Keeps the reachable set finite
/// (2^1 + ... + 2^max_len strings) so exhaustive scoring is cheap.
gpt::AllowedTokens ab_mask(int max_len) {
  static const std::vector<int> ab = {Tokenizer::kEos,
                                      Tokenizer::char_token('a'),
                                      Tokenizer::char_token('b')};
  static const std::vector<int> eos = {Tokenizer::kEos};
  gpt::AllowedTokens allowed;
  allowed.steps.assign(static_cast<std::size_t>(max_len), ab);
  allowed.steps.push_back(eos);
  return allowed;
}

/// log P(token) under gpt::masked_log_probs over `allowed`: -inf for a
/// token outside the list, which is never scored.
double allowed_log_prob(std::span<const float> logits,
                        std::span<const int> allowed, int token) {
  std::vector<double> lps;
  gpt::masked_log_probs(logits, allowed, lps);
  const auto it = std::find(allowed.begin(), allowed.end(), token);
  if (it == allowed.end()) return -std::numeric_limits<double>::infinity();
  return lps[static_cast<std::size_t>(it - allowed.begin())];
}

struct Ranked {
  std::string password;
  double log_prob;
  std::vector<int> seq;  ///< full token sequence (tie-break key)
};

/// Scores one candidate sequence with the enumerator's exact arithmetic:
/// walk the chain, score each step's allowed list with masked_log_probs,
/// accumulate the terms left to right in double.
double score_chain(const gpt::GptModel& model, std::span<const int> prefix,
                   std::span<const int> rest, const gpt::AllowedTokens& mask) {
  gpt::InferenceSession session(model);
  session.reset(1);
  for (int t : prefix) session.step(std::span<const int>(&t, 1));
  double logp = 0.0;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    logp += allowed_log_prob(session.logits_row(0),
                             mask.at(static_cast<gpt::Index>(i)), rest[i]);
    if (i + 1 < rest.size()) {
      int t = rest[i];
      session.step(std::span<const int>(&t, 1));
    }
  }
  return logp;
}

/// Every reachable guess under ab_mask(max_len), brute-force scored and
/// sorted by the enumerator's total order: higher log-prob first, ties to
/// the lexicographically smaller token sequence.
std::vector<Ranked> brute_force_ranking(const gpt::GptModel& model,
                                        const std::vector<int>& prefix,
                                        int max_len) {
  const gpt::AllowedTokens mask = ab_mask(max_len);
  const std::vector<int> alphabet = {Tokenizer::char_token('a'),
                                     Tokenizer::char_token('b')};
  std::vector<Ranked> all;
  std::vector<int> chars;
  const auto emit = [&] {
    if (chars.empty()) return;  // "" decodes empty: the enumerator skips it
    std::vector<int> rest = chars;
    rest.push_back(Tokenizer::kEos);
    Ranked r;
    for (int t : chars) r.password.push_back(Tokenizer::token_char(t));
    r.log_prob = score_chain(model, prefix, rest, mask);
    r.seq = prefix;
    r.seq.insert(r.seq.end(), rest.begin(), rest.end());
    all.push_back(std::move(r));
  };
  // Depth-first enumeration of {a,b}^(0..max_len).
  const std::function<void()> recurse = [&] {
    emit();
    if (static_cast<int>(chars.size()) == max_len) return;
    for (int t : alphabet) {
      chars.push_back(t);
      recurse();
      chars.pop_back();
    }
  };
  recurse();
  std::sort(all.begin(), all.end(), [](const Ranked& x, const Ranked& y) {
    if (x.log_prob != y.log_prob) return x.log_prob > y.log_prob;
    return x.seq < y.seq;
  });
  return all;
}

std::vector<ScoredGuess> drain(OrderedEnumerator& e) {
  std::vector<ScoredGuess> out;
  while (auto g = e.next()) out.push_back(std::move(*g));
  return out;
}

class SearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new gpt::GptModel(gpt::Config::tiny(), 77);
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }
  static gpt::GptModel* model_;
};
gpt::GptModel* SearchTest::model_ = nullptr;

constexpr int kMaxLen = 3;

TEST_F(SearchTest, ExactDescendingOrderMatchesBruteForce) {
  const std::vector<int> prefix = {Tokenizer::kBos};
  const auto expected = brute_force_ranking(*model_, prefix, kMaxLen);
  ASSERT_EQ(expected.size(), 2u + 4u + 8u);

  OrderedEnumerator e(*model_, prefix, {}, ab_mask(kMaxLen));
  const auto got = drain(e);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].password, expected[i].password) << "rank " << i;
    // Bitwise: the enumerator and the brute force share the scoring
    // arithmetic (masked_log_probs, left-to-right double accumulation).
    EXPECT_EQ(got[i].log_prob, expected[i].log_prob) << "rank " << i;
  }
  EXPECT_TRUE(e.stats().exhausted);
  EXPECT_EQ(e.stats().truncated, 0u);
  EXPECT_EQ(e.stats().emitted, expected.size());
}

TEST_F(SearchTest, BitwiseReproducibleAcrossRuns) {
  const std::vector<int> prefix = {Tokenizer::kBos};
  OrderedEnumerator a(*model_, prefix, {}, ab_mask(kMaxLen));
  OrderedEnumerator b(*model_, prefix, {}, ab_mask(kMaxLen));
  const auto ra = drain(a);
  const auto rb = drain(b);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].password, rb[i].password);
    EXPECT_EQ(ra[i].log_prob, rb[i].log_prob);
  }
}

TEST_F(SearchTest, ResumeSnapshotDoesNotChangeOutput) {
  const std::vector<int> prefix = {Tokenizer::kBos};
  gpt::InferenceSession session(*model_);
  session.reset(1);
  int bos = Tokenizer::kBos;
  session.step(std::span<const int>(&bos, 1));
  const gpt::KvState snap = session.snapshot(0);

  OrderedEnumerator cold(*model_, prefix, {}, ab_mask(kMaxLen));
  OrderedEnumerator warm(*model_, prefix, {}, ab_mask(kMaxLen), &snap);
  const auto rc = drain(cold);
  const auto rw = drain(warm);
  ASSERT_EQ(rc.size(), rw.size());
  for (std::size_t i = 0; i < rc.size(); ++i) {
    EXPECT_EQ(rc[i].password, rw[i].password);
    EXPECT_EQ(rc[i].log_prob, rw[i].log_prob);
  }
  // Roomy budgets: no eviction fallback, so the only prefill difference
  // is the root — warm restored its one-token prefix, cold stepped it.
  EXPECT_EQ(warm.stats().prefill_tokens, 0u);
  EXPECT_EQ(cold.stats().prefill_tokens, 1u);
  EXPECT_EQ(warm.stats().prefill_saved, cold.stats().prefill_saved + 1);
}

TEST_F(SearchTest, PatternMaskEnumeratesWholePatternSpace) {
  const auto pattern = pcfg::parse_pattern("N2");
  ASSERT_TRUE(pattern.has_value());
  const std::vector<int> prefix =
      Tokenizer::encode_generation_prefix(*pattern);
  OrderedEnumerator e(*model_, prefix, {}, core::make_pattern_mask(*pattern));
  const auto got = drain(e);
  // Every 2-digit string exactly once, in non-increasing probability.
  ASSERT_EQ(got.size(), 100u);
  std::set<std::string> seen;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].password.size(), 2u);
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(got[i].password[0])));
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(got[i].password[1])));
    EXPECT_TRUE(seen.insert(got[i].password).second)
        << "duplicate " << got[i].password;
    if (i > 0) {
      EXPECT_LE(got[i].log_prob, got[i - 1].log_prob);
    }
  }
  EXPECT_TRUE(e.stats().exhausted);
}

TEST_F(SearchTest, StopByCountYieldsExactPrefixOfFullRanking) {
  const std::vector<int> prefix = {Tokenizer::kBos};
  OrderedEnumerator full(*model_, prefix, {}, ab_mask(kMaxLen));
  const auto all = drain(full);

  OrderedOptions opts;
  opts.max_guesses = 3;
  OrderedEnumerator capped(*model_, prefix, opts, ab_mask(kMaxLen));
  const auto got = drain(capped);
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].password, all[i].password);
    EXPECT_EQ(got[i].log_prob, all[i].log_prob);
  }
  // Terminal: next() keeps returning nullopt.
  EXPECT_FALSE(capped.next().has_value());
}

TEST_F(SearchTest, ExpansionCapYieldsExactPrefixOfFullRanking) {
  const std::vector<int> prefix = {Tokenizer::kBos};
  OrderedEnumerator full(*model_, prefix, {}, ab_mask(kMaxLen));
  const auto all = drain(full);

  // A hard expansion budget stops the search deterministically; whatever
  // was emitted first must still be an exact prefix of the ideal ranking.
  OrderedOptions opts;
  opts.max_expansions = 4;
  OrderedEnumerator capped(*model_, prefix, opts, ab_mask(kMaxLen));
  const auto got = drain(capped);
  ASSERT_LT(got.size(), all.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].password, all[i].password);
    EXPECT_EQ(got[i].log_prob, all[i].log_prob);
  }
  EXPECT_TRUE(capped.stats().expansion_capped);
  EXPECT_LE(capped.stats().nodes_expanded, 4u);
  // The admissible bound covers every guess the cap cut off.
  for (std::size_t i = got.size(); i < all.size(); ++i)
    EXPECT_LE(all[i].log_prob, capped.stats().truncated_log_prob);
  EXPECT_FALSE(capped.next().has_value());
}

TEST_F(SearchTest, DeadlineStopsAnytime) {
  const std::vector<int> prefix = {Tokenizer::kBos};
  OrderedOptions opts;
  opts.deadline_ms = 0.001;  // expires at the first frontier check
  OrderedEnumerator e(*model_, prefix, opts, ab_mask(kMaxLen));
  const auto got = drain(e);
  EXPECT_TRUE(e.stats().deadline_hit);
  EXPECT_LT(got.size(), 14u);
  for (std::size_t i = 1; i < got.size(); ++i)
    EXPECT_LE(got[i].log_prob, got[i - 1].log_prob);
  EXPECT_FALSE(e.next().has_value());
}

// Budget truncation: emissions must stay an order-preserving subset of the
// untruncated ranking, every miss must score at or below the reported
// admissible bound, and no KV pin may leak — the trie destructor aborts on
// a live pin, so clean teardown after heavy heap eviction IS the leak
// check (run under ASan/TSan via the sanitize label).
TEST_F(SearchTest, BudgetTruncationIsHonestAndLeaksNoPins) {
  const std::vector<int> prefix = {Tokenizer::kBos};
  OrderedEnumerator full(*model_, prefix, {}, ab_mask(kMaxLen));
  const auto all = drain(full);

  OrderedOptions opts;
  opts.max_nodes = 2;   // constant frontier eviction
  opts.cache_bytes = 1; // every insert immediately over budget
  auto* e = new OrderedEnumerator(*model_, prefix, opts, ab_mask(kMaxLen));
  const auto got = drain(*e);
  EXPECT_GT(e->stats().truncated, 0u);
  EXPECT_GT(e->stats().truncated_log_prob,
            -std::numeric_limits<double>::infinity());
  // Order-preserving subset of the full ranking.
  std::size_t j = 0;
  for (const auto& g : got) {
    while (j < all.size() &&
           (all[j].password != g.password || all[j].log_prob != g.log_prob))
      ++j;
    ASSERT_LT(j, all.size()) << "emitted guess not in full ranking: "
                             << g.password;
    ++j;
  }
  // Honest bound: everything the budget run missed scores at or below it
  // (the bound is the best log-prob ever dropped from the frontier).
  std::set<std::string> emitted;
  for (const auto& g : got) emitted.insert(g.password);
  for (const auto& r : all)
    if (!emitted.count(r.password)) {
      EXPECT_LE(r.log_prob, e->stats().truncated_log_prob) << r.password;
    }
  // Pins never exceed resident nodes while live...
  EXPECT_LE(e->cache().pinned_nodes(), e->cache().nodes());
  // ...and the trie's destructor PPG_CHECKs pinned_ == 0: deleting the
  // enumerator (frontier pins released first) must not abort.
  delete e;
}

TEST_F(SearchTest, MaskedLogProbsNormalizes) {
  // Token 1 has the largest logit but is not listed: it is never scored,
  // and the listed tokens renormalise among themselves.
  const std::vector<float> logits = {1.0f, 9.0f, 0.5f, -2.0f};
  const std::vector<int> allowed = {0, 2, 3};
  std::vector<double> lps;
  gpt::masked_log_probs(logits, allowed, lps);
  ASSERT_EQ(lps.size(), allowed.size());
  double mass = 0.0;
  for (double lp : lps) mass += std::exp(lp);
  EXPECT_NEAR(mass, 1.0, 1e-12);
  EXPECT_EQ(allowed_log_prob(logits, allowed, 1),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(allowed_log_prob(logits, allowed, 2), lps[1]);
  // An empty list scores nothing (no children, no NaNs): every token -inf.
  gpt::masked_log_probs(logits, {}, lps);
  EXPECT_TRUE(lps.empty());
  for (int t = 0; t < 4; ++t)
    EXPECT_EQ(allowed_log_prob(logits, {}, t),
              -std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace ppg
