#include "gpt/sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "tokenizer/tokenizer.h"

namespace ppg::gpt {

int sample_from_logits(std::span<const float> logits, Rng& rng,
                       const SampleOptions& opts) {
  const std::size_t v = logits.size();
  // Work on (probability, index) pairs after temperature scaling.
  thread_local std::vector<std::pair<float, int>> items;
  items.clear();
  items.reserve(v);
  const float inv_t = 1.f / std::max(opts.temperature, 1e-6f);
  float mx = -1e30f;
  for (std::size_t i = 0; i < v; ++i) mx = std::max(mx, logits[i] * inv_t);
  for (std::size_t i = 0; i < v; ++i) {
    const float l = logits[i] * inv_t;
    if (l <= -1e29f) continue;  // masked out
    items.emplace_back(std::exp(l - mx), static_cast<int>(i));
  }
  if (items.empty()) return -1;  // everything masked
  const bool truncate =
      (opts.top_k > 0 && static_cast<std::size_t>(opts.top_k) < items.size()) ||
      opts.top_p < 1.0;
  if (truncate) {
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (opts.top_k > 0 && static_cast<std::size_t>(opts.top_k) < items.size())
      items.resize(static_cast<std::size_t>(opts.top_k));
    if (opts.top_p < 1.0) {
      double total = 0.0;
      for (const auto& [p, idx] : items) total += p;
      double acc = 0.0;
      std::size_t keep = 0;
      for (; keep < items.size(); ++keep) {
        acc += items[keep].first;
        if (acc >= opts.top_p * total) {
          ++keep;
          break;
        }
      }
      items.resize(std::max<std::size_t>(keep, 1));
    }
  }
  double total = 0.0;
  for (const auto& [p, idx] : items) total += p;
  double target = rng.uniform() * total;
  for (const auto& [p, idx] : items) {
    target -= p;
    if (target < 0.0) return idx;
  }
  return items.back().second;
}

void sample_rows(InferenceSession& session, std::span<const SampleRow> rows,
                 const SampleOptions& opts, const RowDone& done) {
  const Index context = session.config().context;
  std::vector<std::vector<int>> generated(rows.size());
  std::vector<char> finished(rows.size(), 0);
  std::vector<int> feed(rows.size());
  std::vector<float> logits(static_cast<std::size_t>(session.config().vocab));
  for (std::size_t alive = rows.size(); alive > 0;) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      feed[i] = InferenceSession::kIdle;
      if (finished[i]) continue;
      const Index pos = session.position(static_cast<Index>(i));
      std::vector<int>& out = generated[i];
      int tok_id = -1;  // a full context window draws nothing
      if (pos < context) {
        const auto row = session.logits_row(static_cast<Index>(i));
        std::copy(row.begin(), row.end(), logits.begin());
        const LogitMask* mask = rows[i].mask;
        if (mask != nullptr && *mask)
          (*mask)(static_cast<Index>(out.size()), logits);
        tok_id = sample_from_logits(logits, *rows[i].rng, opts);
      }
      if (tok_id >= 0) out.push_back(tok_id);
      // Finished on <EOS>, on a fully masked row (the caller's decode
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
                                          const LogitMask& mask,
                                          SampleStats* stats,
                                          const KvState* resume) {
  std::vector<std::string> out;
  out.reserve(count);
  if (count == 0) return out;
  SampleStats local;
  InferenceSession session(model, opts.precision);
  const std::size_t attempt_budget =
      count * static_cast<std::size_t>(std::max(opts.max_attempt_factor, 1));
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
    const std::vector<SampleRow> draws(n, SampleRow{&mask, &rng});
    sample_rows(session, draws, opts,
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
