// Differential goldens for the sampled decode paths.
//
// Each case runs one sampled generation on a random-init tiny model and
// hashes what it returns:
//  * gpt::sample_passwords, pattern-masked and unmasked, cold and resumed
//    from a snapshot one token short of the prefix, in one batch and in
//    batches of 4 with a partial last batch (guesses and SampleStats);
//  * sampled dc_generate with the KV cache off, on, and at a 1-byte
//    budget, each at 1 and 4 threads — one digest for all six;
//  * GuessService responses to pattern, prefix and free requests at
//    max_batch 4 and 64, with batching off and with the prefix cache off —
//    one digest for all four (passwords sorted within each response, since
//    their order follows row completion).
// The digests were recorded with the lockstep decode loops (one shared
// position per session, one loop per caller) that the ragged decode loop
// replaced, so a change that moves one guess fails here.
//
// Sampled guesses depend on logit bits, which depend on how the compiler
// may reorder floating-point work (-ffast-math, the SIMD width
// -march=native vectorizes with), so the table is keyed by build flavour.
// A flavour with no recorded table skips the digest comparison and prints
// its digests instead; the behavioural checks still run. The file uses only
// public APIs and keeps its own helpers, so the same body can be built
// against an older tree to record a new flavour's digests.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <future>
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
#include "gpt/sampler.h"
#include "pcfg/pattern.h"
#include "pcfg/pcfg_model.h"
#include "serve/service.h"
#include "tokenizer/tokenizer.h"

namespace ppg {
namespace {

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

std::vector<int> l4n2_prefix() {
  return Tokenizer::encode_generation_prefix(*pcfg::parse_pattern("L4N2"));
}

struct SampleCase {
  const char* name;
  bool masked;
  bool resumed;  ///< from a snapshot one token short of the prefix
  gpt::Index batch_size;
  std::size_t count;
};

std::vector<SampleCase> sample_cases() {
  return {{"masked", true, false, 64, 24},
          {"unmasked", false, false, 64, 24},
          {"masked/resumed", true, true, 64, 24},
          {"masked/batch4", true, false, 4, 10},
          {"unmasked/resumed/batch4", false, true, 4, 10}};
}

struct Sampled {
  std::vector<std::string> guesses;
  gpt::SampleStats stats;
};

Sampled run_sample(const gpt::GptModel& model, const SampleCase& c) {
  const std::vector<int> prefix = l4n2_prefix();
  gpt::KvState resume;
  if (c.resumed) {
    gpt::InferenceSession s(model);
    const gpt::PrefillRow row{
        std::span<const int>(prefix).first(prefix.size() - 1)};
    s.prefill({&row, 1});
    resume = s.snapshot(0);
  }
  gpt::SampleOptions opts;
  opts.batch_size = c.batch_size;
  const gpt::AllowedTokens allowed =
      c.masked ? core::make_pattern_mask(*pcfg::parse_pattern("L4N2"))
               : gpt::AllowedTokens{};
  Rng rng(11);
  Sampled out;
  out.guesses = gpt::sample_passwords(model, prefix, c.count, rng, opts,
                                      allowed, &out.stats,
                                      c.resumed ? &resume : nullptr);
  return out;
}

std::uint64_t digest(const Sampled& s) {
  Digest d;
  for (const auto& pw : s.guesses) d.add(pw);
  for (const std::size_t v : {s.stats.sequences_run, s.stats.invalid,
                              s.stats.prefill_tokens, s.stats.prefill_saved})
    d.add(static_cast<std::uint64_t>(v));
  return d.h;
}

pcfg::PatternDistribution dcgen_patterns() {
  pcfg::PatternDistribution dist;
  dist.add("L6N2", 4);
  dist.add("L4N4", 3);
  dist.add("N6", 2);
  dist.add("L8", 1);
  dist.finalize();
  return dist;
}

std::uint64_t dcgen_digest(const gpt::GptModel& model, std::size_t cache_bytes,
                           int threads) {
  core::DcGenConfig cfg;
  cfg.total = 1200;
  cfg.threshold = 25;
  cfg.sample.batch_size = 32;
  cfg.kv_cache_bytes = cache_bytes;
  cfg.threads = threads;
  core::DcGenStats stats;
  const auto pws = core::dc_generate(model, dcgen_patterns(), cfg, 5, &stats);
  Digest d;
  for (const auto& pw : pws) d.add(pw);
  for (const std::size_t v : {stats.divisions, stats.leaves, stats.emitted,
                              stats.unique_emitted})
    d.add(static_cast<std::uint64_t>(v));
  return d.h;
}

std::vector<serve::Request> serve_requests() {
  std::vector<serve::Request> reqs;
  const auto pattern = [&](const char* p, std::size_t count,
                           std::uint64_t seed) {
    serve::Request r;
    r.kind = serve::RequestKind::kPattern;
    r.pattern = p;
    r.count = count;
    r.seed = seed;
    reqs.push_back(r);
  };
  pattern("L6N2", 7, 100);
  pattern("L4", 5, 101);
  pattern("N6", 6, 102);
  serve::Request prefix;
  prefix.kind = serve::RequestKind::kPrefix;
  prefix.pattern = "L4N2";
  prefix.prefix = "Ab";
  prefix.count = 5;
  prefix.seed = 103;
  reqs.push_back(prefix);
  serve::Request free;
  free.kind = serve::RequestKind::kFree;
  free.count = 6;
  free.seed = 104;
  reqs.push_back(free);
  pattern("L6N2", 3, 105);
  return reqs;
}

std::uint64_t serve_digest(const gpt::GptModel& model,
                           const pcfg::PatternDistribution& patterns,
                           const serve::ServiceConfig& cfg) {
  serve::GuessService svc(model, patterns, cfg);
  std::vector<std::future<serve::Response>> futs;
  for (serve::Request r : serve_requests()) futs.push_back(svc.submit(r));
  Digest d;
  for (auto& f : futs) {
    serve::Response r = f.get();
    EXPECT_EQ(r.status, serve::Status::kOk);
    std::sort(r.passwords.begin(), r.passwords.end());
    d.add(static_cast<std::uint64_t>(r.status));
    d.add(static_cast<std::uint64_t>(r.invalid));
    d.add(static_cast<std::uint64_t>(r.passwords.size()));
    for (const auto& pw : r.passwords) d.add(pw);
  }
  return d.h;
}

struct Golden {
  const char* flavour;
  std::uint64_t sample[5];  ///< sample_cases(), in order
  std::uint64_t dcgen;
  std::uint64_t serve;
};

// Recorded with the lockstep loops; see the file comment. The three
// flavours happen to agree on this fixture.
constexpr Golden kGoldens[] = {
    // Release builds (-O2 -march=native -ffast-math) on an AVX-512 host.
    {"gcc/fast-math/avx512",
     {0xb3f6805b60b4df07ull,   // masked: 24 guesses, 24 run, 0 invalid
      0x0fd5dd43746d93cbull,   // unmasked: 3 guesses, 112 run, 109 invalid
      0x02e15c152c645437ull,   // masked/resumed
      0xcf25e4592d4c33fbull,   // masked/batch4: 10 guesses, 10 run
      0xf15be82b59519975ull},  // unmasked/resumed/batch4: 40 run, 40 invalid
     0xdf73d55f6c41a14aull,    // dcgen
     0x167972d5fcdc7273ull},   // serve
    // The same flags on an AVX2 host (recorded with -march=x86-64-v3).
    {"gcc/fast-math/avx2",
     {0xb3f6805b60b4df07ull,   // masked: 24 guesses, 24 run, 0 invalid
      0x0fd5dd43746d93cbull,   // unmasked: 3 guesses, 112 run, 109 invalid
      0x02e15c152c645437ull,   // masked/resumed
      0xcf25e4592d4c33fbull,   // masked/batch4: 10 guesses, 10 run
      0xf15be82b59519975ull},  // unmasked/resumed/batch4: 40 run, 40 invalid
     0xdf73d55f6c41a14aull,    // dcgen
     0x167972d5fcdc7273ull},   // serve
    // Sanitizer builds: no -ffast-math, no -march=native.
    {"gcc/strict/baseline",
     {0xb3f6805b60b4df07ull,   // masked: 24 guesses, 24 run, 0 invalid
      0x0fd5dd43746d93cbull,   // unmasked: 3 guesses, 112 run, 109 invalid
      0x02e15c152c645437ull,   // masked/resumed
      0xcf25e4592d4c33fbull,   // masked/batch4: 10 guesses, 10 run
      0xf15be82b59519975ull},  // unmasked/resumed/batch4: 40 run, 40 invalid
     0xdf73d55f6c41a14aull,    // dcgen
     0x167972d5fcdc7273ull},   // serve
};

const Golden* golden_for(const std::string& flavour) {
  for (const Golden& g : kGoldens)
    if (flavour == g.flavour) return &g;
  return nullptr;
}

class DecodeGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new gpt::GptModel(gpt::Config::tiny(), 91);
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }
  static gpt::GptModel* model_;
};
gpt::GptModel* DecodeGoldenTest::model_ = nullptr;

TEST_F(DecodeGoldenTest, SamplePasswordsMatchesRecordedDigests) {
  std::printf("build flavour %s\n", build_flavour().c_str());
  const Golden* golden = golden_for(build_flavour());
  const auto cases = sample_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldens[0].sample));
  std::vector<Sampled> runs;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    runs.push_back(run_sample(*model_, cases[i]));
    const Sampled& r = runs.back();
    const std::uint64_t h = digest(r);
    std::printf("  0x%016llxull,  // %s: %zu guesses, %zu run, %zu invalid\n",
                static_cast<unsigned long long>(h), cases[i].name,
                r.guesses.size(), r.stats.sequences_run, r.stats.invalid);
    if (golden != nullptr) {
      EXPECT_EQ(h, golden->sample[i]);
    }
  }
  // Resuming changes where the prefix comes from, never the guesses.
  EXPECT_EQ(runs[2].guesses, runs[0].guesses);
  EXPECT_GT(runs[2].stats.prefill_saved, 0u);
  EXPECT_EQ(runs[0].guesses.size(), 24u);
  EXPECT_EQ(runs[3].guesses.size(), 10u);
  if (golden == nullptr) {
    GTEST_SKIP() << "no digests recorded for build flavour " << build_flavour();
  }
}

TEST_F(DecodeGoldenTest, SampledDcGenMatchesRecordedDigest) {
  const Golden* golden = golden_for(build_flavour());
  const std::uint64_t want = dcgen_digest(*model_, 0, 1);
  std::printf("  dcgen 0x%016llxull\n", static_cast<unsigned long long>(want));
  for (const int threads : {1, 4}) {
    for (const std::size_t budget : {std::size_t(32) << 20, std::size_t(1)}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      EXPECT_EQ(dcgen_digest(*model_, budget, threads), want);
    }
  }
  EXPECT_EQ(dcgen_digest(*model_, 0, 4), want);
  if (golden != nullptr) {
    EXPECT_EQ(want, golden->dcgen);
  } else {
    GTEST_SKIP() << "no digests recorded for build flavour " << build_flavour();
  }
}

TEST_F(DecodeGoldenTest, ServedResponsesMatchRecordedDigest) {
  const Golden* golden = golden_for(build_flavour());
  pcfg::PatternDistribution patterns;
  patterns.add("L6N2", 3);
  patterns.add("N6", 1);
  patterns.finalize();
  serve::ServiceConfig small;
  small.max_batch = 4;
  serve::ServiceConfig large;
  large.max_batch = 64;
  serve::ServiceConfig unbatched;
  unbatched.batching = false;
  serve::ServiceConfig cold;
  cold.prefix_cache_bytes = 0;
  const std::uint64_t want = serve_digest(*model_, patterns, small);
  std::printf("  serve 0x%016llxull\n", static_cast<unsigned long long>(want));
  EXPECT_EQ(serve_digest(*model_, patterns, large), want);
  EXPECT_EQ(serve_digest(*model_, patterns, unbatched), want);
  EXPECT_EQ(serve_digest(*model_, patterns, cold), want);
  if (golden != nullptr) {
    EXPECT_EQ(want, golden->serve);
  } else {
    GTEST_SKIP() << "no digests recorded for build flavour " << build_flavour();
  }
}

}  // namespace
}  // namespace ppg
