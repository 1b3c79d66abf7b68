// Differential goldens and trie-traffic bounds for ordered enumeration.
//
// The digests below were recorded with the enumerator the shared-parent
// frontier replaced (one full token sequence and one KV pin per frontier
// node). Each case drains a complete enumeration on the tiny fixture and
// hashes its (password, log-prob bits) stream and its stats, so a change
// to the frontier, its tie-break or its budget trimming that moves one
// guess, one bit or one dropped node fails here. One ordered D&C-GEN run
// covers the leaf integration. The tiny fixture's logits are nearly flat,
// so the scoring arithmetic is also pinned on its own: gpt::masked_log_probs
// over the shared token lists on rows of widely spread logits, whose
// digest was recorded from the full-row scorer of sentinel-masked rows
// that the per-step lists replaced.
//
// Log-prob bits depend on how the compiler may reorder floating-point
// work (-ffast-math, the SIMD width -march=native vectorizes with), so
// the table is keyed by build flavour. A flavour with no recorded table
// skips the digest comparison and prints its digests instead; the
// behavioural checks still run. The file uses only public API and keeps
// its own helpers, so the same body can be built against an older tree to
// record a new flavour's digests (without the score pin before
// gpt::masked_log_probs existed, and calling next() without a session
// before the enumerator was step-driven).
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dcgen.h"
#include "core/masks.h"
#include "gpt/infer.h"
#include "gpt/kv_cache.h"
#include "gpt/sampler.h"
#include "pcfg/pattern.h"
#include "pcfg/pcfg_model.h"
#include "search/ordered.h"
#include "tokenizer/tokenizer.h"

namespace ppg {
namespace {

using search::OrderedEnumerator;
using search::OrderedOptions;
using tok::Tokenizer;

/// FNV-1a over the bytes it is fed.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void add(std::string_view s) {
    bytes(s.data(), s.size());
    bytes("", 1);  // terminator: "ab","c" differs from "a","bc"
  }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

/// The build flavour a digest table belongs to.
std::string build_flavour() {
#if defined(__clang__)
  std::string f = "clang/";
#else
  std::string f = "gcc/";
#endif
#if defined(__FAST_MATH__)
  f += "fast-math";
#else
  f += "strict";
#endif
#if defined(__AVX512F__)
  f += "/avx512";
#elif defined(__AVX2__)
  f += "/avx2";
#else
  f += "/baseline";
#endif
  return f;
}

/// Steps 0..max_len-1 allow {<EOS>,'a','b'}; later steps only <EOS>.
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

struct MaskCase {
  const char* name;
  std::vector<int> prefix;
  gpt::AllowedTokens mask;
};

std::vector<MaskCase> mask_cases() {
  const auto n2 = pcfg::parse_pattern("N2");
  return {{"ab", {Tokenizer::kBos}, ab_mask(3)},
          {"N2", Tokenizer::encode_generation_prefix(*n2),
           core::make_pattern_mask(*n2)}};
}

struct BudgetCase {
  const char* name;
  OrderedOptions opts;
};

std::vector<BudgetCase> budget_cases() {
  OrderedOptions tiny;
  tiny.max_nodes = 2;
  tiny.cache_bytes = 1;
  OrderedOptions overflow;
  overflow.max_nodes = 8;  // under N2 most expansions overflow it
  OrderedOptions capped;
  capped.max_expansions = 4;
  return {{"roomy", {}},
          {"tiny", tiny},
          {"overflow", overflow},
          {"capped", capped}};
}

struct Enumeration {
  std::uint64_t guesses;
  std::uint64_t stats;
  search::OrderedStats raw;
};

Enumeration enumerate(const gpt::GptModel& model, const MaskCase& m,
                      const OrderedOptions& opts) {
  OrderedEnumerator e(model, m.prefix, opts, m.mask);
  gpt::InferenceSession session(model);
  Digest g;
  while (auto guess = e.next(session)) {
    g.add(guess->password);
    g.add(guess->log_prob);
  }
  const search::OrderedStats& s = e.stats();
  Digest st;
  for (const std::size_t v :
       {s.nodes_expanded, s.emitted, s.invalid, s.heap_peak, s.truncated,
        s.prefill_tokens, s.prefill_saved})
    st.add(static_cast<std::uint64_t>(v));
  st.add(s.truncated_log_prob);
  for (const bool b : {s.exhausted, s.deadline_hit, s.expansion_capped})
    st.add(static_cast<std::uint64_t>(b));
  return {g.h, st.h, s};
}

pcfg::PatternDistribution small_space_patterns() {
  pcfg::PatternDistribution dist;
  dist.add("N3", 3);
  dist.add("L2", 2);
  dist.add("N2", 1);
  dist.finalize();
  return dist;
}

std::uint64_t ordered_dcgen_digest(const gpt::GptModel& model) {
  core::DcGenConfig cfg;
  cfg.total = 240;
  cfg.threshold = 20;
  cfg.leaf_mode = core::LeafMode::kOrdered;
  cfg.ordered_max_expansions = 64;
  core::DcGenStats stats;
  const auto pws =
      core::dc_generate(model, small_space_patterns(), cfg, 7, &stats);
  Digest d;
  for (const auto& pw : pws) d.add(pw);
  d.add(static_cast<std::uint64_t>(stats.emitted));
  return d.h;
}

/// gpt::masked_log_probs over every shared list (and ab_mask's) on rows of
/// logits spread uniformly over [-8, 8), all scores hashed bit for bit.
std::uint64_t score_digest() {
  const core::ClassTokenSets& sets = core::ClassTokenSets::instance();
  const std::vector<int> ab = {Tokenizer::kEos, Tokenizer::char_token('a'),
                               Tokenizer::char_token('b')};
  const std::span<const int> lists[] = {sets.letter, sets.digit,
                                        sets.special, sets.eos, ab,
                                        gpt::AllowedTokens::every()};
  Rng rng(5);
  std::vector<float> logits(Tokenizer::kVocabSize);
  std::vector<double> scores;
  Digest d;
  for (int row = 0; row < 256; ++row) {
    for (float& l : logits)
      l = static_cast<float>(static_cast<int>(rng.uniform_u64(1u << 16)) -
                             (1 << 15)) /
          4096.f;
    for (const std::span<const int> list : lists) {
      gpt::masked_log_probs(logits, list, scores);
      for (const double score : scores) d.add(score);
    }
  }
  return d.h;
}

struct Golden {
  const char* flavour;
  /// mask_cases() x budget_cases(), row-major: {guesses, stats}.
  std::uint64_t runs[8][2];
  std::uint64_t dcgen;
  std::uint64_t scores;  ///< score_digest()
};

// Recorded with the per-node-sequence enumerator; see the file comment.
constexpr Golden kGoldens[] = {
    // Release builds (-O2 -march=native -ffast-math) on an AVX-512 host.
    {"gcc/fast-math/avx512",
     {{0x50b388822bfe65dfull, 0xc64426f431f024b3ull},  // ab/roomy
      {0x3f5289d2ce122b54ull, 0xe6a928a551c669b6ull},  // ab/tiny
      {0xda3ba4f774183829ull, 0xe35bfcac8956e3b0ull},  // ab/overflow
      {0x3f5289d2ce122b54ull, 0xef7c538f33f07c66ull},  // ab/capped
      {0x6a9da2e42f4fdbb3ull, 0x52f00c12f014d49dull},  // N2/roomy
      {0xcdf7d40c58751b91ull, 0x723db0ef771a2795ull},  // N2/tiny
      {0x9346c84da111b68bull, 0x9af83bbaaf0a1037ull},  // N2/overflow
      {0xcbf29ce484222325ull, 0x1c27dbe918412a33ull}},  // N2/capped
     0x7365ce4abf0d9205ull, 0x235a02843596c864ull},
    // The same flags on an AVX2 host (recorded with -march=x86-64-v3).
    {"gcc/fast-math/avx2",
     {{0xc870fbfe0c9149caull, 0xc64426f431f024b3ull},  // ab/roomy
      {0x3bbec356164af407ull, 0x08d1ec5ec92fa5d1ull},  // ab/tiny
      {0x8bc71c5e6eb3f3d6ull, 0x6d802ffce4a2ea34ull},  // ab/overflow
      {0x3bbec356164af407ull, 0xf4670c3680145769ull},  // ab/capped
      {0x2cd52ee79e365558ull, 0x52f00c12f014d49dull},  // N2/roomy
      {0x665b4b2d920c47eeull, 0x858e48249a23e0d1ull},  // N2/tiny
      {0xd2d9a461c429003bull, 0x44c82c65ddf34179ull},  // N2/overflow
      {0xcbf29ce484222325ull, 0x4a178a81bdfa10e1ull}},  // N2/capped
     0x7365ce4abf0d9205ull, 0x50fe1130f194f3efull},
    // Sanitizer builds: no -ffast-math, no -march=native.
    {"gcc/strict/baseline",
     {{0x262883f88c1b05eeull, 0xc64426f431f024b3ull},  // ab/roomy
      {0x9a6014ea7f96a326ull, 0x5f4b835ec989289dull},  // ab/tiny
      {0x70b24c18629cc8ebull, 0x015ba89c00ca623aull},  // ab/overflow
      {0x9a6014ea7f96a326ull, 0xb2c36b99e72bc7c6ull},  // ab/capped
      {0x60ede41179e79ebfull, 0x52f00c12f014d49dull},  // N2/roomy
      {0xa46be88baa89fc58ull, 0x7049d106eef2548aull},  // N2/tiny
      {0x6c993840a0ee1a64ull, 0x10f13c8fac9ed652ull},  // N2/overflow
      {0xcbf29ce484222325ull, 0x788494c5215cc320ull}},  // N2/capped
     0x7365ce4abf0d9205ull, 0x62ce1f86dbbde762ull},
};

const Golden* golden_for(const std::string& flavour) {
  for (const Golden& g : kGoldens)
    if (flavour == g.flavour) return &g;
  return nullptr;
}

class SearchGoldenTest : public ::testing::Test {
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
gpt::GptModel* SearchGoldenTest::model_ = nullptr;

TEST_F(SearchGoldenTest, OrderedOutputMatchesRecordedDigests) {
  const std::string flavour = build_flavour();
  std::printf("build flavour %s\n", flavour.c_str());
  const Golden* golden = golden_for(flavour);
  const auto masks = mask_cases();
  const auto budgets = budget_cases();
  ASSERT_EQ(masks.size() * budgets.size(), std::size(kGoldens[0].runs));
  std::size_t i = 0;
  for (const MaskCase& m : masks) {
    for (const BudgetCase& b : budgets) {
      SCOPED_TRACE(std::string(m.name) + "/" + b.name);
      const Enumeration r = enumerate(*model_, m, b.opts);
      std::printf(
          "  {0x%016llxull, 0x%016llxull},  // %s/%s: %zu emitted, %zu "
          "expanded, %zu dropped\n",
          static_cast<unsigned long long>(r.guesses),
          static_cast<unsigned long long>(r.stats), m.name, b.name,
          r.raw.emitted, r.raw.nodes_expanded, r.raw.truncated);
      // The budget cases must really exercise their budget.
      if (b.opts.max_nodes != OrderedOptions{}.max_nodes) {
        EXPECT_GT(r.raw.truncated, 0u);
      }
      if (b.opts.max_expansions != 0) {
        EXPECT_TRUE(r.raw.expansion_capped);
      }
      if (golden != nullptr) {
        EXPECT_EQ(r.guesses, golden->runs[i][0]);
        EXPECT_EQ(r.stats, golden->runs[i][1]);
      }
      ++i;
    }
  }
  const std::uint64_t dcgen = ordered_dcgen_digest(*model_);
  std::printf("  dcgen 0x%016llxull\n", static_cast<unsigned long long>(dcgen));
  if (golden != nullptr) {
    EXPECT_EQ(dcgen, golden->dcgen);
  } else {
    GTEST_SKIP() << "no digests recorded for build flavour " << flavour;
  }
}

TEST_F(SearchGoldenTest, ScoresMatchRecordedDigestOnSpreadLogits) {
  const std::string flavour = build_flavour();
  const Golden* golden = golden_for(flavour);
  const std::uint64_t scores = score_digest();
  std::printf("  scores 0x%016llxull\n",
              static_cast<unsigned long long>(scores));
  if (golden == nullptr)
    GTEST_SKIP() << "no digests recorded for build flavour " << flavour;
  EXPECT_EQ(scores, golden->scores);
}

// Children share their parent's pin, so an enumeration walks the trie once
// per expansion (the record's pin) plus once for the root's children —
// not once per surviving child.
TEST_F(SearchGoldenTest, OneTrieLookupPerExpansion) {
  gpt::KvCacheMetrics& kv = gpt::kv_cache_metrics();
  for (const MaskCase& m : mask_cases()) {
    SCOPED_TRACE(m.name);
    const auto before = kv.hits.value() + kv.misses.value();
    const Enumeration r = enumerate(*model_, m, {});
    const auto lookups = kv.hits.value() + kv.misses.value() - before;
    EXPECT_GT(r.raw.nodes_expanded, 0u);
    EXPECT_LE(lookups, r.raw.nodes_expanded + 1);
  }
}

}  // namespace
}  // namespace ppg
