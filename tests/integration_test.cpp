// End-to-end pipeline tests: synthetic leak → cleaning → split → training →
// generation → evaluation, exercising the same path the benches use.
#include <filesystem>

#include <gtest/gtest.h>

#include "baselines/passgpt.h"
#include "core/dcgen.h"
#include "core/pagpassgpt.h"
#include "data/corpus.h"
#include "eval/metrics.h"
#include "pcfg/pcfg_model.h"
#include "tokenizer/tokenizer.h"

namespace ppg {
namespace {

struct Pipeline {
  data::Split split;
  core::PagPassGPT pag{gpt::Config::small(), 1001};
  baselines::PassGpt passgpt{gpt::Config::small(), 1002};
};

const Pipeline& shared_pipeline() {
  static const Pipeline* p = [] {
    auto* pipe = new Pipeline;
    data::SiteProfile profile;
    profile.name = "integration";
    profile.unique_target = 3500;
    const auto corpus = data::clean(data::generate_site(profile, 37));
    pipe->split = data::split_712(corpus.passwords, 37);
    // Disk-cached fixtures: ctest runs each TEST in a fresh process.
    const auto dir = std::filesystem::temp_directory_path();
    const auto pag_cache = dir / "ppg_fixture_integration_pag_v1.ckpt";
    const auto gpt_cache = dir / "ppg_fixture_integration_gpt_v1.ckpt";
    gpt::TrainConfig cfg;
    cfg.epochs = 12;
    cfg.batch_size = 64;
    cfg.lr = 2e-3f;
    try {
      pipe->pag.load(pag_cache.string());
    } catch (const std::exception&) {
      pipe->pag.train(pipe->split.train, pipe->split.valid, cfg);
      pipe->pag.save(pag_cache.string());
    }
    try {
      pipe->passgpt.load(gpt_cache.string());
    } catch (const std::exception&) {
      pipe->passgpt.train(pipe->split.train, pipe->split.valid, cfg);
      pipe->passgpt.save(gpt_cache.string());
    }
    return pipe;
  }();
  return *p;
}

TEST(Integration, SplitSizesAreSane) {
  const auto& p = shared_pipeline();
  EXPECT_GT(p.split.train.size(), 2000u);
  EXPECT_GT(p.split.test.size(), 300u);
}

TEST(Integration, TrainedModelBeatsUntrainedOnHitRate) {
  const auto& p = shared_pipeline();
  const eval::TestSet test(p.split.test);
  Rng rng(1);
  const auto trained_guesses = p.pag.generate_free(2000, rng);
  const double trained_hr = eval::hit_rate(trained_guesses, test);

  core::PagPassGPT untrained(gpt::Config::small(), 555);
  // Untrained generations rarely even decode; treat empty as zero hits.
  // At 4 attempts per guess, asking 1000 caps the run at 4000 sequences.
  Rng rng2(1);
  const auto raw = gpt::sample_passwords(
      untrained.model(), std::vector<int>{tok::Tokenizer::kBos}, 1000, rng2);
  const double untrained_hr = eval::hit_rate(raw, test);
  EXPECT_GT(trained_hr, untrained_hr);
  EXPECT_GT(trained_hr, 0.0);
}

TEST(Integration, PatternConditioningHelpsOnMultiSegmentPatterns) {
  // The paper's Fig. 8 effect, miniaturised: on a frequent multi-segment
  // pattern, PagPassGPT's conditioned generation should hit at least as
  // well as PassGPT's filtered generation.
  const auto& p = shared_pipeline();
  const eval::TestSet test(p.split.test);
  const auto top2 = p.pag.patterns().top_k_with_segments(1, 2);
  ASSERT_FALSE(top2.empty());
  const std::string pattern_str = top2[0].first;
  const auto pattern = *pcfg::parse_pattern(pattern_str);
  Rng r1(2), r2(2);
  const auto pag_guesses =
      p.pag.generate_with_pattern(pattern, 1500, r1, {}, true);
  const auto gpt_guesses =
      p.passgpt.generate_with_pattern(pattern, 1500, r2);
  const double pag_hr = eval::pattern_hit_rate(pag_guesses, test, pattern_str);
  const double gpt_hr = eval::pattern_hit_rate(gpt_guesses, test, pattern_str);
  EXPECT_GT(pag_hr, 0.0);
  // Allow slack: at tiny scale the gap is noisy, but PagPassGPT should not
  // be meaningfully worse.
  EXPECT_GE(pag_hr, gpt_hr * 0.6);
}

TEST(Integration, DcGenImprovesRepeatRateAtEqualBudget) {
  const auto& p = shared_pipeline();
  const std::size_t budget = 3000;
  core::DcGenConfig cfg;
  cfg.total = double(budget);
  cfg.threshold = 48;
  const auto dc = core::dc_generate(p.pag.model(), p.pag.patterns(), cfg, 3);
  Rng rng(3);
  const auto free = p.pag.generate_free(budget, rng);
  EXPECT_LT(eval::repeat_rate(dc), eval::repeat_rate(free));
}

TEST(Integration, DcGenHitRateNotWorseThanFreeSampling) {
  const auto& p = shared_pipeline();
  const eval::TestSet test(p.split.test);
  const std::size_t budget = 3000;
  core::DcGenConfig cfg;
  cfg.total = double(budget);
  cfg.threshold = 48;
  const auto dc = core::dc_generate(p.pag.model(), p.pag.patterns(), cfg, 4);
  Rng rng(4);
  const auto free = p.pag.generate_free(budget, rng);
  EXPECT_GE(eval::hit_rate(dc, test), eval::hit_rate(free, test) * 0.7);
}

TEST(Integration, PcfgBaselineCompletesTheComparison) {
  const auto& p = shared_pipeline();
  const eval::TestSet test(p.split.test);
  pcfg::PcfgModel pcfg_model;
  pcfg_model.train(p.split.train);
  const auto guesses = pcfg_model.enumerate(3000);
  EXPECT_GT(eval::hit_rate(guesses, test), 0.0);
}

TEST(Integration, CrossSiteTransferHitsSomething) {
  const auto& p = shared_pipeline();
  data::SiteProfile other;
  other.name = "integration-other";
  other.unique_target = 1500;
  other.rank_jitter = 0.3;
  const auto corpus = data::clean(data::generate_site(other, 47));
  const eval::TestSet cross_test(corpus.passwords);
  Rng rng(5);
  const auto guesses = p.pag.generate_free(2500, rng);
  EXPECT_GT(eval::hit_rate(guesses, cross_test), 0.0);
}

TEST(Integration, GuessCurveTracksGeneratorOverBudgets) {
  const auto& p = shared_pipeline();
  const eval::TestSet test(p.split.test);
  eval::GuessCurve curve(test);
  Rng rng(6);
  std::vector<eval::CurvePoint> points;
  for (int chunk = 0; chunk < 4; ++chunk) {
    curve.feed(p.pag.generate_free(500, rng));
    points.push_back(curve.snapshot());
  }
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].hits, points[i - 1].hits);
    EXPECT_GE(points[i].guesses, points[i - 1].guesses);
  }
}

}  // namespace
}  // namespace ppg
