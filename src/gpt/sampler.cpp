#include "gpt/sampler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "tokenizer/tokenizer.h"

namespace ppg::gpt {

std::span<const int> AllowedTokens::every() {
  static const std::array<int, tok::Tokenizer::kVocabSize> ids = [] {
    std::array<int, tok::Tokenizer::kVocabSize> all{};
    std::iota(all.begin(), all.end(), 0);
    return all;
  }();
  return ids;
}

int sample_from_logits(std::span<const float> logits,
                       std::span<const int> allowed, Rng& rng) {
  if (allowed.empty()) return -1;
  // (probability, id) pairs of the allowed ids. The exps run one at a time
  // in the emplace loop rather than as a vector call: each probability has
  // the same bits whatever the list length or the build's vector width.
  thread_local std::vector<std::pair<float, int>> items;
  float mx = -std::numeric_limits<float>::infinity();
  for (const int id : allowed)
    mx = std::max(mx, logits[static_cast<std::size_t>(id)]);
  items.clear();
  for (const int id : allowed)
    items.emplace_back(std::exp(logits[static_cast<std::size_t>(id)] - mx), id);
  double total = 0.0;
  for (const auto& [p, idx] : items) total += p;
  double target = rng.uniform() * total;
  for (const auto& [p, idx] : items) {
    target -= p;
    if (target < 0.0) return idx;
  }
  return items.back().second;
}

void masked_log_probs(std::span<const float> logits,
                      std::span<const int> allowed, std::vector<double>& out) {
  out.resize(allowed.size());
  if (allowed.empty()) return;
  thread_local std::vector<float> listed;
  listed.assign(logits.size(), 0.f);
  float mx = logits[static_cast<std::size_t>(allowed[0])];
  for (const int id : allowed) {
    mx = std::max(mx, logits[static_cast<std::size_t>(id)]);
    listed[static_cast<std::size_t>(id)] = 1.f;
  }
  // The normaliser walks the whole row in id order and skips unlisted ids
  // rather than walking the list: -ffast-math builds vectorise this loop
  // into partial sums keyed by id, and a sum in any other shape moves the
  // last bit of some scores.
  double z = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i)
    if (listed[i] != 0.f) z += std::exp(static_cast<double>(logits[i] - mx));
  const double logz = std::log(z);
  for (std::size_t k = 0; k < allowed.size(); ++k)
    out[k] = static_cast<double>(
                 logits[static_cast<std::size_t>(allowed[k])] - mx) -
             logz;
}

void sample_rows(InferenceSession& session, std::span<const SampleRow> rows,
                 const RowDone& done) {
  const Index context = session.config().context;
  std::vector<std::vector<int>> generated(rows.size());
  std::vector<char> finished(rows.size(), 0);
  std::vector<int> feed(rows.size());
  for (std::size_t alive = rows.size(); alive > 0;) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      feed[i] = InferenceSession::kIdle;
      if (finished[i]) continue;
      const Index pos = session.position(static_cast<Index>(i));
      std::vector<int>& out = generated[i];
      int tok_id = -1;  // a full context window draws nothing
      if (pos < context) {
        const AllowedTokens* table = rows[i].allowed;
        tok_id = sample_from_logits(
            session.logits_row(static_cast<Index>(i)),
            table ? table->at(static_cast<Index>(out.size()))
                  : AllowedTokens::every(),
            *rows[i].rng);
      }
      if (tok_id >= 0) out.push_back(tok_id);
      // Finished on <EOS>, on a row allowed no token (the caller's decode
      // rejects structurally bad sequences), or when the drawn token would
      // take the last position, whose logits nothing reads.
      if (tok_id < 0 || tok_id == tok::Tokenizer::kEos || pos + 1 >= context) {
        finished[i] = 1;
        --alive;
        done(i, out);
      } else {
        feed[i] = tok_id;
      }
    }
    if (alive > 0) session.step(feed);
  }
}

std::vector<std::string> sample_passwords(const GptModel& model,
                                          std::span<const int> prefix,
                                          std::size_t count, Rng& rng,
                                          const SampleOptions& opts,
                                          const AllowedTokens& allowed,
                                          SampleStats* stats,
                                          const KvState* resume) {
  std::vector<std::string> out;
  out.reserve(count);
  if (count == 0) return out;
  // Gives up after this many sequences per requested password when the
  // model keeps producing undecodable output (unfinished or malformed rules).
  constexpr std::size_t kMaxAttemptFactor = 4;
  SampleStats local;
  InferenceSession session(model);
  const std::size_t attempt_budget = count * kMaxAttemptFactor;
  std::vector<int> full(prefix.begin(), prefix.end());
  std::vector<std::optional<std::string>> decoded;

  while (out.size() < count && local.sequences_run < attempt_budget) {
    const std::size_t n = std::min<std::size_t>(
        static_cast<std::size_t>(opts.batch_size), count - out.size());
    local.sequences_run += n;
    const std::vector<PrefillRow> starts(n, PrefillRow{prefix, resume});
    const PrefillCounts primed = session.prefill(starts);
    local.prefill_tokens += primed.tokens;
    local.prefill_saved += primed.saved;
    decoded.assign(n, std::nullopt);
    const std::vector<SampleRow> draws(n, SampleRow{&allowed, &rng});
    sample_rows(session, draws,
                [&](std::size_t i, std::span<const int> generated) {
                  full.resize(prefix.size());
                  full.insert(full.end(), generated.begin(), generated.end());
                  decoded[i] = tok::Tokenizer::decode_password(full);
                });
    // Keep rows in index order, whatever order they finished in.
    for (std::size_t i = 0; i < n && out.size() < count; ++i) {
      if (decoded[i].has_value() && !decoded[i]->empty())
        out.push_back(std::move(*decoded[i]));
      else
        ++local.invalid;
    }
  }
  if (stats) *stats = local;
  return out;
}

}  // namespace ppg::gpt
