// End-to-end backend-equivalence tests (DESIGN.md §15).
//
// The kernel-level differential harness (kernel_backend_test.cpp) pins
// each kernel bitwise across backends; these tests pin the property the
// rest of the system actually relies on: whole inference pipelines —
// raw decoding sessions, D&C-GEN, best-first ordered search, and the
// serving layer — emit IDENTICAL passwords whichever SIMD backend is
// active, for fp32 and for the int8 path alike. int8 is a serving option
// (ServiceConfig::precision), so its pipeline runs through GuessService.
// Quantization is allowed to change outputs (it is a different numeric
// substrate), so the int8-vs-fp32 relationship is pinned differently: on
// a trained tiny model the quantized hit rate must land in a band around
// the fp32 one.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "core/dcgen.h"
#include "core/pagpassgpt.h"
#include "data/corpus.h"
#include "eval/metrics.h"
#include "gpt/infer.h"
#include "nn/backend.h"
#include "serve/service.h"
#include "tokenizer/tokenizer.h"

namespace ppg {
namespace {

/// Tiny trained fixture, disk-cached like the other suites' fixtures
/// (ctest runs each TEST in a fresh process).
struct Fixture {
  core::PagPassGPT pag{gpt::Config::tiny(), 177};
  std::vector<std::string> test;
};

const Fixture& fixture() {
  static const Fixture* fx = [] {
    auto* f = new Fixture;
    data::SiteProfile profile;
    profile.name = "backende2e";
    // generate_site emits unique passwords, so train and test are
    // disjoint and hits demand generalization to unseen-but-habitual
    // passwords — which the tiny config only manages with a corpus big
    // enough to expose the habit space. The model is small enough that
    // even 20k passwords train in seconds.
    profile.unique_target = 20000;
    const auto corpus = data::clean(data::generate_site(profile, 17));
    const auto split = data::split_712(corpus.passwords, 17);
    f->test = split.test;
    const auto cache = std::filesystem::temp_directory_path() /
                       "ppg_fixture_backende2e_v3.ckpt";
    try {
      f->pag.load(cache.string());
      return f;
    } catch (const std::exception&) {
    }
    gpt::TrainConfig cfg;
    cfg.epochs = 6;
    cfg.batch_size = 64;
    cfg.lr = 2e-3f;
    f->pag.train(split.train, split.valid, cfg);
    f->pag.save(cache.string());
    return f;
  }();
  return *fx;
}

/// Runs `fn` once per available backend and requires every run to produce
/// the same result as the first (scalar) run.
template <typename Fn>
void expect_backend_invariant(const char* what, Fn&& fn) {
  const auto backends = nn::available_backends();
  ASSERT_FALSE(backends.empty());
  decltype(fn()) reference{};
  for (std::size_t i = 0; i < backends.size(); ++i) {
    nn::ScopedBackend forced(backends[i]);
    auto got = fn();
    if (i == 0) {
      reference = std::move(got);
      continue;
    }
    EXPECT_EQ(got, reference)
        << what << " diverged on backend " << nn::backend_name(backends[i])
        << " vs " << nn::backend_name(backends[0]);
  }
}

/// Bit-exact logits of a short decode, flattened to ints so EXPECT_EQ
/// compares bitwise (float== would accept -0.0/0.0 and miss NaN).
std::vector<std::uint32_t> decode_logit_bits(gpt::Precision precision) {
  const auto& m = fixture().pag;
  gpt::InferenceSession session(m.model(), precision);
  std::vector<std::uint32_t> bits;
  const auto harvest = [&](std::span<const float> logits) {
    for (float v : logits) {
      std::uint32_t u;
      std::memcpy(&u, &v, sizeof(u));
      bits.push_back(u);
    }
  };
  const std::vector<int> bos = {tok::Tokenizer::kBos};
  session.prefill(std::vector<gpt::PrefillRow>(3, gpt::PrefillRow{bos}));
  for (gpt::Index r = 0; r < 3; ++r) harvest(session.logits_row(r));
  for (int t : {5, 9, 3})
    harvest(session.step(std::vector<int>{t, t + 1, t + 2}));
  return bits;
}

TEST(BackendE2E, Fp32DecodeLogitsBitwiseIdenticalAcrossBackends) {
  expect_backend_invariant("fp32 decode logits",
                           [] { return decode_logit_bits(gpt::Precision::kFp32); });
}

TEST(BackendE2E, Int8DecodeLogitsBitwiseIdenticalAcrossBackends) {
  expect_backend_invariant("int8 decode logits",
                           [] { return decode_logit_bits(gpt::Precision::kInt8); });
}

TEST(BackendE2E, DcGenSampledOutputsIdenticalAcrossBackends) {
  const auto& m = fixture().pag;
  core::DcGenConfig cfg;
  cfg.total = 400;
  cfg.threshold = 40;
  expect_backend_invariant("dcgen sampled passwords", [&] {
    return dc_generate(m.model(), m.patterns(), cfg, 11);
  });
}

TEST(BackendE2E, DcGenOrderedOutputsIdenticalAcrossBackends) {
  const auto& m = fixture().pag;
  // Quick-preset budgets: the property is per-guess equivalence, which a
  // small total pins as well as a large one; each extra expansion is a
  // batch-1 forward × three backends.
  core::DcGenConfig cfg;
  cfg.total = 100;
  cfg.threshold = 40;
  cfg.leaf_mode = core::LeafMode::kOrdered;
  cfg.ordered_max_expansions = 1 << 9;
  expect_backend_invariant("dcgen ordered passwords", [&] {
    return dc_generate(m.model(), m.patterns(), cfg, 12);
  });
}

/// Guesses a one-worker GuessService at `precision` returns to `requests`
/// pattern requests of `count` guesses each, every request's pattern drawn
/// from the fixture's distribution by its seed. Each response is sorted:
/// its order follows row completion, which batching decides.
std::vector<std::string> served_guesses(gpt::Precision precision,
                                        std::size_t requests,
                                        std::size_t count,
                                        std::uint64_t seed) {
  const auto& m = fixture().pag;
  serve::ServiceConfig cfg;
  cfg.precision = precision;
  serve::GuessService service(m.model(), m.patterns(), cfg);
  std::vector<std::future<serve::Response>> responses;
  for (std::size_t i = 0; i < requests; ++i) {
    serve::Request req;
    req.count = count;
    req.seed = seed + i;
    responses.push_back(service.submit(req));
  }
  std::vector<std::string> out;
  for (auto& f : responses) {
    serve::Response r = f.get();
    EXPECT_EQ(r.status, serve::Status::kOk);
    std::sort(r.passwords.begin(), r.passwords.end());
    out.insert(out.end(), r.passwords.begin(), r.passwords.end());
  }
  return out;
}

TEST(BackendE2E, ServeInt8OutputsIdenticalAcrossBackends) {
  expect_backend_invariant("served int8 passwords", [] {
    return served_guesses(gpt::Precision::kInt8, 8, 50, 13);
  });
}

// The int8 substrate trades bounded per-logit error for throughput; on a
// trained model that error must not move guessing quality outside a band
// around fp32. The band is deliberately loose — fp32 and int8 runs draw
// different samples, so it must absorb ordinary sampling noise — but it
// pins the regression that matters: quantization silently destroying the
// model (int8 hit rate collapsing toward zero) or the comparison being
// run on a broken fixture (fp32 hit rate of zero).
TEST(BackendE2E, QuantizedHitRateWithinBandOfFp32) {
  const eval::TestSet test(fixture().test);
  const auto fp32 = served_guesses(gpt::Precision::kFp32, 200, 10, 21);
  const auto int8 = served_guesses(gpt::Precision::kInt8, 200, 10, 21);
  const double fp32_hr = eval::hit_rate(fp32, test);
  const double int8_hr = eval::hit_rate(int8, test);
  EXPECT_GT(fp32_hr, 0.0) << fp32.size() << " fp32 guesses, 0 hits";
  EXPECT_GT(int8_hr, 0.0) << int8.size() << " int8 guesses, 0 hits";
  EXPECT_NEAR(int8_hr, fp32_hr, std::max(0.06, 0.5 * fp32_hr))
      << "fp32 hit rate " << fp32_hr << " vs int8 " << int8_hr;
}

}  // namespace
}  // namespace ppg
