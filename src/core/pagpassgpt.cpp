#include "core/pagpassgpt.h"

#include <stdexcept>

#include "common/durable_io.h"
#include "common/logging.h"
#include "gpt/infer.h"
#include "core/masks.h"
#include "tokenizer/tokenizer.h"

namespace ppg::core {

PagPassGPT::PagPassGPT(gpt::Config cfg, std::uint64_t seed)
    : model_(cfg, seed) {}

gpt::TrainReport PagPassGPT::train(
    std::span<const std::string> train_passwords,
    std::span<const std::string> valid_passwords,
    const gpt::TrainConfig& cfg) {
  if (trained_) throw std::logic_error("PagPassGPT::train: already trained");
  std::vector<std::vector<int>> train_seqs, valid_seqs;
  train_seqs.reserve(train_passwords.size());
  std::size_t skipped = 0;
  for (const auto& pw : train_passwords) {
    auto ids = tok::Tokenizer::encode_training(pw);
    if (!ids) {
      ++skipped;
      continue;
    }
    patterns_.add(pcfg::pattern_of(pw));
    train_seqs.push_back(std::move(*ids));
  }
  for (const auto& pw : valid_passwords) {
    if (auto ids = tok::Tokenizer::encode_training(pw))
      valid_seqs.push_back(std::move(*ids));
  }
  if (train_seqs.empty())
    throw std::invalid_argument("PagPassGPT::train: no encodable passwords");
  if (skipped > 0)
    log_debug("PagPassGPT::train: skipped %zu unencodable passwords", skipped);
  patterns_.finalize();
  auto report = gpt::train_lm(model_, train_seqs, valid_seqs, cfg,
                              tok::Tokenizer::kPad);
  trained_ = true;
  return report;
}

const pcfg::PatternDistribution& PagPassGPT::patterns() const {
  if (!trained_)
    throw std::logic_error("PagPassGPT::patterns: untrained model");
  return patterns_;
}

std::vector<std::string> PagPassGPT::generate_with_pattern(
    const std::vector<pcfg::Segment>& pattern, std::size_t count, Rng& rng,
    const gpt::SampleOptions& opts, bool strict,
    gpt::SampleStats* stats) const {
  const auto prefix = tok::Tokenizer::encode_generation_prefix(pattern);
  return gpt::sample_passwords(
      model_, prefix, count, rng, opts,
      strict ? make_pattern_mask(pattern) : gpt::AllowedTokens{}, stats);
}

std::vector<std::string> PagPassGPT::generate_free(
    std::size_t count, Rng& rng, const gpt::SampleOptions& opts,
    gpt::SampleStats* stats) const {
  const std::vector<int> prefix = {tok::Tokenizer::kBos};
  return gpt::sample_passwords(model_, prefix, count, rng, opts, {}, stats);
}

double PagPassGPT::log_prob(std::string_view password) const {
  const auto ids = tok::Tokenizer::encode_training(password);
  if (!ids) return -1e30;
  return gpt::sequence_log_prob(model_, *ids);
}

void PagPassGPT::save(const std::string& path) const {
  if (!trained_) throw std::logic_error("PagPassGPT::save: untrained model");
  model_.save(path);
  durable::atomic_save(path + ".patterns",
                       [this](BinaryWriter& w) { patterns_.save(w); });
}

void PagPassGPT::load(const std::string& path) {
  model_.load(path);
  durable::checked_load_or_legacy(path + ".patterns", [this](BinaryReader& r) {
    patterns_ = pcfg::PatternDistribution::load(r);
  });
  trained_ = true;
}

}  // namespace ppg::core
