#include "gpt/infer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/check.h"
#include "gpt/attention.h"
#include "gpt/sampler.h"
#include "nn/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppg::gpt {

namespace {

/// Inference metrics, registered once (lock-free updates thereafter).
struct InferMetrics {
  obs::Counter& steps;
  obs::Counter& tokens;
  obs::Gauge& batch;
  obs::Histogram& step_us;
  obs::Histogram& prime_us;
  static InferMetrics& get() {
    static InferMetrics m{obs::Registry::global().counter("infer.steps"),
                          obs::Registry::global().counter("infer.tokens"),
                          obs::Registry::global().gauge("infer.batch"),
                          obs::Registry::global().histogram("infer.step_us"),
                          obs::Registry::global().histogram("infer.prime_us")};
    return m;
  }
};

inline float gelu1(float v) {
  return 0.5f * v * (1.f + std::erf(v * 0.7071067811865475f));
}

/// Floats in one position's KvBlock: K and V for every layer.
Index block_floats(const Config& c) { return 2 * c.n_layers * c.d_model; }

}  // namespace

InferenceSession::InferenceSession(const GptModel& model, Precision precision)
    : model_(&model), precision_(precision) {
  bind_weights();
}

void InferenceSession::bind_weights() {
  if (precision_ == Precision::kInt8)
    qweights_ = model_->quantized();
  else
    pweights_ = model_->packed();
}

void InferenceSession::project(const nn::PackedMatrix& w, Index m,
                               const float* x, const float* bias, float* y) {
  nn::kernels::packed_affine(m, w.n, w.k, x, w.data, bias, y);
}

void InferenceSession::project(const nn::quant::QuantizedMatrix& w, Index m,
                               const float* x, const float* bias, float* y) {
  nn::kernels::quantize_rows(m, w.k, w.k_pad, x, qx_.data(), qs_.data());
  nn::kernels::qaffine(m, w.n, w.k_pad, qx_.data(), qs_.data(), w.data.data(),
                       w.scales.data(), bias, y);
}

void InferenceSession::reset(Index batch) {
  if (batch <= 0)
    throw std::invalid_argument("InferenceSession::reset: batch must be > 0");
  const Config& c = model_->config();
  bind_weights();
  batch_ = batch;
  rows_.resize(static_cast<std::size_t>(batch));
  for (std::vector<KvBlock>& row : rows_) row.clear();
  ready_.assign(static_cast<std::size_t>(batch), 0);
  // Every scratch buffer is indexed with a per-row stride, so a batch that
  // fits the existing allocation reuses it as-is: activation rows are
  // rewritten before being read, and logits are read only once ready.
  if (batch > capacity_) {
    x_.assign(batch * c.d_model, 0.f);
    h_.assign(batch * c.d_model, 0.f);
    qkv_.assign(batch * 3 * c.d_model, 0.f);
    att_.assign(batch * c.d_model, 0.f);
    ff_.assign(batch * c.d_ff(), 0.f);
    logits_.assign(batch * c.vocab, 0.f);
    if (precision_ == Precision::kInt8) {
      // Widest activation the projections quantize is the d_ff-wide gelu
      // output feeding fc2; k is zero-padded per quant.h.
      qx_.assign(
          static_cast<std::size_t>(batch * nn::quant::padded_k(c.d_ff())), 0);
      qs_.assign(static_cast<std::size_t>(batch), 0.f);
    }
    capacity_ = batch;
  }

  InferMetrics::get().batch.set(static_cast<double>(batch));
}

std::span<const float> InferenceSession::step(std::span<const int> tokens) {
  const Config& c = model_->config();
  if (batch_ == 0)
    throw std::logic_error("InferenceSession::step before reset()");
  if (static_cast<Index>(tokens.size()) != batch_)
    throw std::invalid_argument("InferenceSession::step: token count != batch");
  live_.clear();
  for (Index i = 0; i < batch_; ++i) {
    const int tok = tokens[static_cast<std::size_t>(i)];
    if (tok == kIdle) continue;
    if (tok < 0 || tok >= c.vocab)
      throw std::invalid_argument("InferenceSession::step: token out of range");
    if (position(i) >= c.context)
      throw std::runtime_error("InferenceSession::step: context exhausted");
    live_.push_back(i);
  }
  const std::span<const float> all(logits_.data(),
                                   static_cast<std::size_t>(batch_ * c.vocab));
  const Index m = static_cast<Index>(live_.size());
  if (m == 0) return all;
  InferMetrics& metrics = InferMetrics::get();
  metrics.steps.inc();
  metrics.tokens.inc(static_cast<std::uint64_t>(m));
  obs::ScopedLatency latency(metrics.step_us);
  obs::Span span("infer/step", "gpt");
  const Index d = c.d_model;

  // Embedding: x = wte[token] + wpe[pos], each row at its own position,
  // which then gets its block.
  const float* wte = model_->wte().table().data().data();
  const float* wpe = model_->wpe().table().data().data();
  const auto floats = static_cast<std::size_t>(block_floats(c));
  fresh_.resize(static_cast<std::size_t>(m));
  for (Index j = 0; j < m; ++j) {
    const Index r = live_[static_cast<std::size_t>(j)];
    std::vector<KvBlock>& row = rows_[static_cast<std::size_t>(r)];
    const float* te =
        wte + static_cast<Index>(tokens[static_cast<std::size_t>(r)]) * d;
    const float* pe = wpe + static_cast<Index>(row.size()) * d;
    float* xr = x_.data() + j * d;
    for (Index k = 0; k < d; ++k) xr[k] = te[k] + pe[k];
    auto block = std::make_shared_for_overwrite<float[]>(floats);
    fresh_[static_cast<std::size_t>(j)] = block.get();
    row.push_back(std::move(block));
  }

  scores_.resize(static_cast<std::size_t>(c.n_heads * c.context));
  // With every row fed the activation rows are the session rows, so the
  // lm_head writes logits_ in place; otherwise it writes compact rows that
  // are scattered to their owners, leaving the idle rows' logits alone.
  const bool compact = m < batch_;
  if (compact)
    step_logits_.resize(static_cast<std::size_t>(m * c.vocab));
  float* out = compact ? step_logits_.data() : logits_.data();
  if (qweights_ != nullptr)
    forward(*qweights_, out);
  else
    forward(*pweights_, out);
  for (Index j = 0; j < m; ++j) {
    const auto r = static_cast<std::size_t>(live_[static_cast<std::size_t>(j)]);
    if (compact)
      std::memcpy(logits_.data() + r * static_cast<std::size_t>(c.vocab),
                  out + j * c.vocab,
                  static_cast<std::size_t>(c.vocab) * sizeof(float));
    ready_[r] = 1;
  }
  return all;
}

template <class M>
void InferenceSession::forward(const DerivedWeights<M>& w, float* logits) {
  const Config& c = model_->config();
  const Index d = c.d_model;
  const Index m = static_cast<Index>(live_.size());
  const AttentionShape shape{d, c.n_heads, c.context};
  for (Index l = 0; l < c.n_layers; ++l) {
    const Block& blk = model_->blocks()[static_cast<std::size_t>(l)];
    const BlockWeights<M>& wb = w.blocks[static_cast<std::size_t>(l)];
    // Attention: h = ln1(x); qkv = h·Wqkv+b; store k,v; attend; x += proj.
    nn::kernels::layernorm_rows(m, d, x_.data(), blk.ln1.gain().data().data(),
                                blk.ln1.bias().data().data(), h_.data());
    project(wb.qkv, m, h_.data(), blk.qkv.bias().data().data(), qkv_.data());
    const Index offset = 2 * l * d;  // this layer's K, then V, in a block
    for (Index i = 0; i < m; ++i) {
      const std::vector<KvBlock>& row =
          rows_[static_cast<std::size_t>(live_[static_cast<std::size_t>(i)])];
      const float* q = qkv_.data() + i * 3 * d;
      // qkv holds k and v back to back, the block's order.
      std::memcpy(fresh_[static_cast<std::size_t>(i)] + offset, q + d,
                  static_cast<std::size_t>(2 * d) * sizeof(float));
      attend(shape, q, row.data(), offset, static_cast<Index>(row.size()) - 1,
             scores_.data(), att_.data() + i * d);
    }
    // x += proj(att)
    project(wb.proj, m, att_.data(), blk.proj.bias().data().data(), h_.data());
    for (Index i = 0; i < m * d; ++i) x_[i] += h_[i];
    // MLP: x += fc2(gelu(fc1(ln2(x))))
    nn::kernels::layernorm_rows(m, d, x_.data(), blk.ln2.gain().data().data(),
                                blk.ln2.bias().data().data(), h_.data());
    project(wb.fc1, m, h_.data(), blk.fc1.bias().data().data(), ff_.data());
    // Only the fed rows — ff_ may be capacity-sized (reset reuse).
    const Index ffn = m * c.d_ff();
    for (Index idx = 0; idx < ffn; ++idx) ff_[idx] = gelu1(ff_[idx]);
    project(wb.fc2, m, ff_.data(), blk.fc2.bias().data().data(), h_.data());
    for (Index i = 0; i < m * d; ++i) x_[i] += h_[i];
  }

  nn::kernels::layernorm_rows(m, d, x_.data(),
                              model_->ln_f().gain().data().data(),
                              model_->ln_f().bias().data().data(), h_.data());
  project(w.lm_head, m, h_.data(), model_->lm_head().bias().data().data(),
          logits);
}

KvState InferenceSession::snapshot(Index row, bool logits) const {
  if (batch_ == 0)
    throw std::logic_error("InferenceSession::snapshot before reset()");
  if (row < 0 || row >= batch_)
    throw std::invalid_argument("InferenceSession::snapshot: row out of range");
  if (position(row) == 0)
    throw std::logic_error("InferenceSession::snapshot before any step()");
  KvState s;
  s.blocks = rows_[static_cast<std::size_t>(row)];
  s.block_floats = block_floats(model_->config());
  if (logits) {
    const auto lr = logits_row(row);
    s.logits.assign(lr.begin(), lr.end());
  }
  return s;
}

void InferenceSession::resume(Index row, const KvState& state) {
  const Config& c = model_->config();
  if (row < 0 || row >= batch_)
    throw std::invalid_argument("InferenceSession::resume: row out of range");
  if (state.len() > c.context)
    throw std::invalid_argument("InferenceSession::resume: length out of range");
  if (state.block_floats != block_floats(c))
    throw std::invalid_argument("InferenceSession::resume: block size mismatch");
  for (const KvBlock& block : state.blocks)
    if (block == nullptr)
      throw std::invalid_argument("InferenceSession::resume: missing block");
  const auto r = static_cast<std::size_t>(row);
  rows_[r].assign(state.blocks.begin(), state.blocks.end());
  ready_[r] = static_cast<Index>(state.logits.size()) == c.vocab;
  if (ready_[r])
    std::memcpy(logits_.data() + r * static_cast<std::size_t>(c.vocab),
                state.logits.data(),
                static_cast<std::size_t>(c.vocab) * sizeof(float));
}

PrefillCounts InferenceSession::prefill(std::span<const PrefillRow> rows) {
  for (const PrefillRow& r : rows) {
    if (r.tokens.empty())
      throw std::invalid_argument("InferenceSession::prefill: row has no tokens");
    if (r.state != nullptr &&
        r.state->len() > static_cast<Index>(r.tokens.size()))
      throw std::invalid_argument(
          "InferenceSession::prefill: resume state deeper than the row's "
          "tokens");
  }
  obs::ScopedLatency latency(InferMetrics::get().prime_us);
  reset(static_cast<Index>(rows.size()));
  // Adjacent rows with the same tokens span and state (a D&C-GEN leaf's
  // rows, a served request's rows) would step identical floats: only the
  // first of each run steps, and each later row shares the row before it.
  // The ledger still counts every row's positions.
  const auto repeats = [rows](std::size_t i) {
    return i > 0 && rows[i].state == rows[i - 1].state &&
           rows[i].tokens.data() == rows[i - 1].tokens.data() &&
           rows[i].tokens.size() == rows[i - 1].tokens.size();
  };
  PrefillCounts n;
  std::size_t longest = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PrefillRow& r = rows[i];
    const std::size_t done =
        r.state != nullptr ? static_cast<std::size_t>(r.state->len()) : 0;
    n.saved += done;
    n.tokens += r.tokens.size() - done;
    if (repeats(i)) continue;
    if (r.state != nullptr) resume(static_cast<Index>(i), *r.state);
    longest = std::max(longest, r.tokens.size() - done);
  }
  feed_.resize(rows.size());
  for (std::size_t t = 0; t < longest; ++t) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t p = rows_[i].size();
      feed_[i] = !repeats(i) && p < rows[i].tokens.size() ? rows[i].tokens[p]
                                                          : kIdle;
    }
    step(feed_);
  }
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (repeats(i))
      copy_row(static_cast<Index>(i) - 1, static_cast<Index>(i));
  KvCacheMetrics& kv = kv_cache_metrics();
  kv.prefill_tokens.inc(n.tokens);
  kv.prefill_saved.inc(n.saved);
  return n;
}

void InferenceSession::copy_row(Index from, Index to) {
  const auto f = static_cast<std::size_t>(from);
  const auto t = static_cast<std::size_t>(to);
  rows_[t] = rows_[f];
  ready_[t] = ready_[f];
  const auto vocab = static_cast<std::size_t>(model_->config().vocab);
  if (ready_[t])
    std::memcpy(logits_.data() + t * vocab, logits_.data() + f * vocab,
                vocab * sizeof(float));
}

std::span<const float> InferenceSession::logits_row(Index i) const {
  PPG_DCHECK(i >= 0 && i < batch_ && ready_[static_cast<std::size_t>(i)],
             "logits_row(%d) read before the row consumed a token",
             static_cast<int>(i));
  const Index v = model_->config().vocab;
  return {logits_.data() + i * v, static_cast<std::size_t>(v)};
}

Index InferenceSession::position(Index row) const {
  PPG_DCHECK(row >= 0 && row < batch_, "position(%d) of a %d-row batch",
             static_cast<int>(row), static_cast<int>(batch_));
  return static_cast<Index>(rows_[static_cast<std::size_t>(row)].size());
}

double sequence_log_prob(const GptModel& model, std::span<const int> ids) {
  if (ids.size() < 2)
    throw std::invalid_argument("sequence_log_prob: need at least two tokens");
  if (static_cast<Index>(ids.size()) > model.config().context)
    throw std::invalid_argument("sequence_log_prob: sequence exceeds context");
  InferenceSession session(model);
  session.reset(1);
  std::vector<double> log_probs;
  double total = 0.0;
  for (std::size_t t = 0; t + 1 < ids.size(); ++t) {
    const int tok = ids[t];
    masked_log_probs(session.step(std::span<const int>(&tok, 1)),
                     AllowedTokens::every(), log_probs);
    total += log_probs[static_cast<std::size_t>(ids[t + 1])];
  }
  return total;
}

}  // namespace ppg::gpt
