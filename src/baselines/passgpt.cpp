#include "baselines/passgpt.h"

#include <stdexcept>

#include "core/masks.h"
#include "tokenizer/tokenizer.h"

namespace ppg::baselines {

PassGpt::PassGpt(gpt::Config cfg, std::uint64_t seed) : model_(cfg, seed) {}

gpt::TrainReport PassGpt::train(std::span<const std::string> train_passwords,
                                std::span<const std::string> valid_passwords,
                                const gpt::TrainConfig& cfg) {
  if (trained_) throw std::logic_error("PassGpt::train: already trained");
  std::vector<std::vector<int>> train_seqs, valid_seqs;
  train_seqs.reserve(train_passwords.size());
  for (const auto& pw : train_passwords)
    if (auto ids = tok::Tokenizer::encode_password_only(pw))
      train_seqs.push_back(std::move(*ids));
  for (const auto& pw : valid_passwords)
    if (auto ids = tok::Tokenizer::encode_password_only(pw))
      valid_seqs.push_back(std::move(*ids));
  if (train_seqs.empty())
    throw std::invalid_argument("PassGpt::train: no encodable passwords");
  auto report = gpt::train_lm(model_, train_seqs, valid_seqs, cfg,
                              tok::Tokenizer::kPad);
  trained_ = true;
  return report;
}

std::vector<std::string> PassGpt::generate(std::size_t count, Rng& rng,
                                           const gpt::SampleOptions& opts,
                                           gpt::SampleStats* stats) const {
  const std::vector<int> prefix = {tok::Tokenizer::kBos};
  return gpt::sample_passwords(model_, prefix, count, rng, opts, {}, stats);
}

std::vector<std::string> PassGpt::generate_with_pattern(
    const std::vector<pcfg::Segment>& pattern, std::size_t count, Rng& rng,
    const gpt::SampleOptions& opts, gpt::SampleStats* stats) const {
  const std::vector<int> prefix = {tok::Tokenizer::kBos};
  // The filtering starts at password position 0: the model never sees the
  // pattern, it is simply forbidden from leaving it.
  return gpt::sample_passwords(model_, prefix, count, rng, opts,
                               core::make_pattern_mask(pattern), stats);
}

}  // namespace ppg::baselines
