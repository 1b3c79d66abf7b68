#include "gpt/model.h"

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "gpt/infer.h"
#include "gpt/trainer.h"
#include "test_util.h"
#include "tokenizer/tokenizer.h"

namespace ppg::gpt {
namespace {

using tok::Tokenizer;

TEST(Config, ValidateRejectsBadSettings) {
  Config c = Config::tiny();
  c.d_model = 10;
  c.n_heads = 4;  // 10 % 4 != 0
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = Config::tiny();
  c.n_layers = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = Config::tiny();
  c.dropout = 1.5f;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, PaperConfigMatchesPublication) {
  const Config c = Config::paper();
  EXPECT_EQ(c.d_model, 256);
  EXPECT_EQ(c.n_layers, 12);
  EXPECT_EQ(c.n_heads, 8);
  EXPECT_EQ(c.context, 32);
  EXPECT_EQ(c.vocab, 136);
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, ByNameCoversEveryPresetAndRejectsOthers) {
  const auto same = [](const Config& a, const Config& b) {
    return a.vocab == b.vocab && a.d_model == b.d_model &&
           a.n_layers == b.n_layers && a.n_heads == b.n_heads &&
           a.context == b.context && a.dropout == b.dropout;
  };
  EXPECT_TRUE(same(Config::by_name("tiny"), Config::tiny()));
  EXPECT_TRUE(same(Config::by_name("small"), Config::small()));
  EXPECT_TRUE(same(Config::by_name("bench"), Config::bench()));
  EXPECT_TRUE(same(Config::by_name("paper"), Config::paper()));
  try {
    Config::by_name("huge");
    FAIL() << "by_name accepted an unknown name";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("huge"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tiny|small|bench|paper"), std::string::npos) << msg;
  }
}

TEST(GptModel, ForwardShapes) {
  GptModel m(Config::tiny(), 1);
  nn::Graph g;
  const std::vector<int> ids = {0, 1, 2, 3, 4, 5};  // batch 2, time 3
  const nn::Tensor logits = m.forward(g, ids, 2, 3);
  EXPECT_EQ(logits.dim(0), 6);
  EXPECT_EQ(logits.dim(1), 136);
}

TEST(GptModel, ForwardValidatesArguments) {
  GptModel m(Config::tiny(), 1);
  nn::Graph g;
  EXPECT_THROW(m.forward(g, {0, 1, 2}, 2, 2), std::invalid_argument);
  const std::vector<int> too_long(2 * 64, 0);
  EXPECT_THROW(m.forward(g, too_long, 2, 64), std::invalid_argument);
}

TEST(GptModel, PaperScaleModelConstructsWithCorrectShapes) {
  // Construction + forward of the full published config (no training).
  GptModel m(Config::paper(), 2);
  EXPECT_GT(m.params().count(), 9'000'000u);  // ~9.5M parameters
  nn::Graph g;
  const std::vector<int> ids(32, 1);
  const nn::Tensor logits = m.forward(g, ids, 1, 32);
  EXPECT_EQ(logits.dim(0), 32);
  EXPECT_EQ(logits.dim(1), 136);
}

TEST(GptModel, LossIsFiniteAndNearUniformAtInit) {
  GptModel m(Config::tiny(), 3);
  nn::Graph g;
  const std::vector<int> inputs = {0, 41, 42, 0, 43, 44};
  const std::vector<int> targets = {41, 42, 2, 43, 44, 2};
  const nn::Tensor loss = m.loss(g, inputs, targets, 2, 3, -1);
  // Near-uniform predictions at init: loss ≈ log(136) ≈ 4.91.
  EXPECT_GT(loss.at(0), 3.5f);
  EXPECT_LT(loss.at(0), 6.5f);
}

std::vector<std::vector<int>> encode_corpus(
    const std::vector<std::string>& pws) {
  std::vector<std::vector<int>> seqs;
  for (const auto& pw : pws)
    if (auto ids = Tokenizer::encode_training(pw))
      seqs.push_back(std::move(*ids));
  return seqs;
}

TEST(Trainer, LossDecreasesOnTinyCorpus) {
  GptModel m(Config::tiny(), 4);
  const auto seqs = encode_corpus(
      {"abc12", "abd34", "abe56", "abf78", "abg90", "abh11", "abi22",
       "abj33", "abk44", "abl55"});
  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.batch_size = 5;
  cfg.lr = 1e-3f;
  const auto report = train_lm(m, seqs, {}, cfg, Tokenizer::kPad);
  ASSERT_EQ(report.epoch_loss.size(), 30u);
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front() * 0.85);
}

TEST(Trainer, ValidationNllTracksTraining) {
  GptModel m(Config::tiny(), 5);
  const auto train = encode_corpus({"love12", "love34", "love56", "love78"});
  const auto valid = encode_corpus({"love90", "love11"});
  TrainConfig cfg;
  cfg.epochs = 20;
  cfg.batch_size = 4;
  cfg.lr = 1e-3f;
  const auto report = train_lm(m, train, valid, cfg, Tokenizer::kPad);
  ASSERT_EQ(report.valid_nll.size(), 20u);
  EXPECT_LT(report.valid_nll.back(), report.valid_nll.front());
}

TEST(Trainer, RejectsDegenerateInputs) {
  GptModel m(Config::tiny(), 6);
  TrainConfig cfg;
  EXPECT_THROW(train_lm(m, {}, {}, cfg, Tokenizer::kPad),
               std::invalid_argument);
  cfg.epochs = 0;
  EXPECT_THROW(train_lm(m, {{0, 1}}, {}, cfg, Tokenizer::kPad),
               std::invalid_argument);
}

TEST(Trainer, EpochHookFires) {
  GptModel m(Config::tiny(), 7);
  const auto seqs = encode_corpus({"abcd1", "abcd2"});
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 2;
  int calls = 0;
  train_lm(m, seqs, {}, cfg, Tokenizer::kPad,
           [&](int, double, double) { ++calls; });
  EXPECT_EQ(calls, 3);
}

/// Logits after a fixed prefix, decoded by `s` as a one-row batch.
std::vector<float> decode(InferenceSession& s) {
  const std::vector<int> prefix = {Tokenizer::kBos, 40, 41, 42};
  const auto logits = testing::prefill_one(s, prefix);
  return {logits.begin(), logits.end()};
}

std::vector<float> decode(const GptModel& m, Precision precision) {
  InferenceSession s(m, precision);
  return decode(s);
}

// Derived weight views follow the weights. A hook that decodes mid-training
// builds the packed and int8 views from that epoch's weights; the steps
// after it must not leave them stale, so the final decodes equal those of
// a fresh model loaded from the trained weights, in fp32 and int8 alike.
TEST(Trainer, DerivedViewsFollowTrainedWeights) {
  GptModel m(Config::tiny(), 12);
  const auto seqs = encode_corpus({"abc12", "abd34", "xyz99", "pass1"});
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 2;
  cfg.lr = 1e-2f;
  InferenceSession kept(m, Precision::kInt8);  // re-binds at every reset
  std::vector<std::vector<float>> mid;
  train_lm(m, seqs, {}, cfg, Tokenizer::kPad, [&](int, double, double) {
    mid.push_back(decode(m, Precision::kFp32));
    mid.push_back(decode(m, Precision::kInt8));
  });
  ASSERT_EQ(mid.size(), 6u);
  EXPECT_NE(mid[0], mid[4]) << "training did not move the weights";

  const auto path =
      std::filesystem::temp_directory_path() / "ppg_views_follow.ckpt";
  m.save(path.string());
  GptModel fresh(Config::tiny(), 13);
  fresh.load(path.string());
  std::remove(path.string().c_str());
  EXPECT_EQ(decode(m, Precision::kFp32), decode(fresh, Precision::kFp32));
  EXPECT_EQ(decode(m, Precision::kInt8), decode(fresh, Precision::kInt8));
  EXPECT_EQ(decode(kept), decode(fresh, Precision::kInt8));
}

// Inference only reads weights, so a model that has decoded on both paths
// holds no gradient buffers; one training step allocates every one.
TEST(GptModel, InferenceAllocatesNoGradientBuffers) {
  GptModel m(Config::tiny(), 14);
  decode(m, Precision::kFp32);
  decode(m, Precision::kInt8);
  for (const auto& p : m.params().items())
    EXPECT_FALSE(p.tensor.grad_allocated()) << p.name;
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 2;
  train_lm(m, encode_corpus({"abc12", "abd34"}), {}, cfg, Tokenizer::kPad);
  for (const auto& p : m.params().items())
    EXPECT_TRUE(p.tensor.grad_allocated()) << p.name;
}

TEST(GptModel, EvaluateNllMatchesLossOnSameData) {
  GptModel m(Config::tiny(), 8);
  const auto seqs = encode_corpus({"ab12", "cd34"});
  const double nll = m.evaluate_nll(seqs, 2, Tokenizer::kPad);
  EXPECT_GT(nll, 0.0);
  EXPECT_LT(nll, 10.0);
  // Deterministic re-evaluation.
  EXPECT_DOUBLE_EQ(m.evaluate_nll(seqs, 2, Tokenizer::kPad), nll);
  // Same value regardless of batch size.
  EXPECT_NEAR(m.evaluate_nll(seqs, 1, Tokenizer::kPad), nll, 1e-3);
}

TEST(GptModel, SaveLoadRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "ppg_test.ckpt";
  GptModel a(Config::tiny(), 9);
  a.save(path.string());
  GptModel b(Config::tiny(), 10);  // different init
  b.load(path.string());
  const auto pa = a.params().items();
  const auto pb = b.params().items();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto da = pa[i].tensor.data();
    const auto db = pb[i].tensor.data();
    for (std::size_t j = 0; j < da.size(); ++j) EXPECT_EQ(da[j], db[j]);
  }
  std::filesystem::remove(path);
}

TEST(GptModel, LoadRejectsConfigMismatch) {
  const auto path =
      std::filesystem::temp_directory_path() / "ppg_test_cfg.ckpt";
  GptModel a(Config::tiny(), 11);
  a.save(path.string());
  GptModel b(Config::bench(), 12);
  EXPECT_THROW(b.load(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(GptModel, LoadRejectsMissingFile) {
  GptModel m(Config::tiny(), 13);
  EXPECT_THROW(m.load("/nonexistent/path.ckpt"), std::runtime_error);
}

TEST(GptModel, SameSeedSameInit) {
  GptModel a(Config::tiny(), 14), b(Config::tiny(), 14);
  const auto pa = a.params().items();
  const auto pb = b.params().items();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i].tensor.data()[0], pb[i].tensor.data()[0]);
}

}  // namespace
}  // namespace ppg::gpt
