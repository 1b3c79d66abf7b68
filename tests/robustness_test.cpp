// Failure injection and hostile-input robustness across modules.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/dcgen.h"
#include "gpt/infer.h"
#include "gpt/model.h"
#include "pcfg/pcfg_model.h"
#include "tokenizer/tokenizer.h"

namespace ppg {
namespace {

namespace fs = std::filesystem;

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process and case: gtest_discover_tests runs each case as
    // its own ctest process, in parallel, and a shared file would let one
    // case's TearDown delete another's checkpoint mid-test.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = (fs::temp_directory_path() /
             ("ppg_robust_" + std::to_string(::getpid()) + "_" +
              info->name() + ".ckpt"))
                .string();
    gpt::GptModel m(gpt::Config::tiny(), 1);
    m.save(path_);
  }
  void TearDown() override { fs::remove(path_); }
  std::string path_;
};

TEST_F(CheckpointCorruption, TruncatedFileRejected) {
  const auto size = fs::file_size(path_);
  fs::resize_file(path_, size / 2);
  gpt::GptModel m(gpt::Config::tiny(), 2);
  EXPECT_THROW(m.load(path_), std::runtime_error);
}

TEST_F(CheckpointCorruption, BadMagicRejected) {
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.write("XXXX", 4);
  }
  gpt::GptModel m(gpt::Config::tiny(), 3);
  EXPECT_THROW(m.load(path_), std::runtime_error);
}

TEST_F(CheckpointCorruption, EmptyFileRejected) {
  fs::resize_file(path_, 0);
  gpt::GptModel m(gpt::Config::tiny(), 4);
  EXPECT_THROW(m.load(path_), std::runtime_error);
}

TEST(TokenizerRobustness, GarbageIdsDecodeDefensively) {
  // Out-of-range ids in the password region must not crash decode.
  const std::vector<int> ids = {tok::Tokenizer::kBos, tok::Tokenizer::kSep,
                                999, tok::Tokenizer::kEos};
  EXPECT_FALSE(tok::Tokenizer::decode_password(ids).has_value());
  EXPECT_NE(tok::Tokenizer::decode_debug(ids).find("<BAD:999>"),
            std::string::npos);
}

TEST(TokenizerRobustness, EmptySequenceDecodes) {
  const std::vector<int> empty;
  EXPECT_FALSE(tok::Tokenizer::decode_password(empty).has_value());
  EXPECT_EQ(tok::Tokenizer::decode_debug(empty), "");
}

TEST(InferenceRobustness, PrimeLongerThanContextThrows) {
  // prefill steps the prefix until step() finds the context window full.
  const gpt::GptModel m(gpt::Config::tiny(), 5);
  gpt::InferenceSession s(m);
  const std::vector<int> prefix(
      static_cast<std::size_t>(m.config().context) + 1, 0);
  const gpt::PrefillRow row{prefix};
  EXPECT_THROW(s.prefill({&row, 1}), std::runtime_error);
}

TEST(InferenceRobustness, EmptyPrimeThrows) {
  const gpt::GptModel m(gpt::Config::tiny(), 6);
  gpt::InferenceSession s(m);
  const gpt::PrefillRow row{};
  EXPECT_THROW(s.prefill({&row, 1}), std::invalid_argument);
}

TEST(DcGenRobustness, UnparseablePatternsSkipped) {
  // A hand-built distribution with hostile pattern strings: D&C-GEN must
  // skip what it cannot parse or represent and still serve the rest.
  const gpt::GptModel m(gpt::Config::tiny(), 7);
  pcfg::PatternDistribution dist;
  dist.add("garbage!!", 5);
  dist.add("L99", 5);  // parseable but not representable (max 12)
  dist.add("N2", 10);
  dist.finalize();
  core::DcGenConfig cfg;
  cfg.total = 50;
  cfg.threshold = 16;
  core::DcGenStats stats;
  const auto out = core::dc_generate(m, dist, cfg, 8, &stats);
  for (const auto& pw : out) EXPECT_EQ(pcfg::pattern_of(pw), "N2");
}

TEST(DcGenRobustness, AllPatternsUnusableYieldsEmpty) {
  const gpt::GptModel m(gpt::Config::tiny(), 9);
  pcfg::PatternDistribution dist;
  dist.add("bogus", 1);
  dist.finalize();
  core::DcGenConfig cfg;
  cfg.total = 100;
  cfg.threshold = 16;
  EXPECT_TRUE(core::dc_generate(m, dist, cfg, 10).empty());
}

TEST(PcfgRobustness, EnumerateZeroIsEmpty) {
  pcfg::PcfgModel model;
  const std::vector<std::string> pws = {"ab12", "cd34"};
  model.train(pws);
  EXPECT_TRUE(model.enumerate(0).empty());
}

TEST(PcfgRobustness, HostilePasswordsInTraining) {
  // Out-of-universe passwords are skipped; training still succeeds when at
  // least one usable password remains.
  pcfg::PcfgModel model;
  const std::vector<std::string> pws = {"has space", "p\xc3\xa4ss", "ok12"};
  model.train(pws);
  EXPECT_EQ(model.patterns().distinct(), 1u);
}

TEST(PatternRobustness, ClassAtNegativePosition) {
  const auto segs = *pcfg::parse_pattern("L2");
  // Negative positions fall before every segment: the first segment wins.
  EXPECT_EQ(pcfg::class_at(segs, 0), pcfg::CharClass::kLetter);
  EXPECT_FALSE(pcfg::class_at(segs, 2).has_value());
}

}  // namespace
}  // namespace ppg
