#include "gpt/infer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/check.h"
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
  obs::Gauge& cache_bytes;
  obs::Histogram& step_us;
  obs::Histogram& prime_us;
  static InferMetrics& get() {
    static InferMetrics m{obs::Registry::global().counter("infer.steps"),
                          obs::Registry::global().counter("infer.tokens"),
                          obs::Registry::global().gauge("infer.batch"),
                          obs::Registry::global().gauge("infer.cache_bytes"),
                          obs::Registry::global().histogram("infer.step_us"),
                          obs::Registry::global().histogram("infer.prime_us")};
    return m;
  }
};

inline float gelu1(float v) {
  return 0.5f * v * (1.f + std::erf(v * 0.7071067811865475f));
}

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

void InferenceSession::project(const nn::PackedMatrix& w, const float* x,
                               const float* bias, float* y) {
  nn::kernels::packed_affine(batch_, w.n, w.k, x, w.data, bias, y);
}

void InferenceSession::project(const nn::quant::QuantizedMatrix& w,
                               const float* x, const float* bias, float* y) {
  nn::kernels::quantize_rows(batch_, w.k, w.k_pad, x, qx_.data(), qs_.data());
  nn::kernels::qaffine(batch_, w.n, w.k_pad, qx_.data(), qs_.data(),
                       w.data.data(), w.scales.data(), bias, y);
}

void InferenceSession::reset(Index batch) {
  if (batch <= 0)
    throw std::invalid_argument("InferenceSession::reset: batch must be > 0");
  const Config& c = model_->config();
  bind_weights();
  batch_ = batch;
  pos_ = 0;
  logits_ready_ = false;
  // Every buffer is indexed with a per-row stride, so a batch that fits the
  // existing allocation reuses it as-is: rows < batch_ are fully rewritten
  // before being read (the KV caches only ever read positions <= pos_, all
  // written since this reset), and stale rows >= batch_ are never touched.
  if (batch > capacity_) {
    const std::size_t cache =
        static_cast<std::size_t>(batch * c.context * c.d_model);
    kcache_.assign(c.n_layers, std::vector<float>(cache, 0.f));
    vcache_.assign(c.n_layers, std::vector<float>(cache, 0.f));
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

  InferMetrics& m = InferMetrics::get();
  m.batch.set(static_cast<double>(batch));
  const double scratch = static_cast<double>(
      x_.size() + h_.size() + qkv_.size() + att_.size() + ff_.size() +
      logits_.size());
  m.cache_bytes.set((2.0 * double(c.n_layers) *
                         double(capacity_ * c.context * c.d_model) +
                     scratch) *
                    sizeof(float));
}

std::span<const float> InferenceSession::step(std::span<const int> tokens) {
  InferMetrics& m = InferMetrics::get();
  m.steps.inc();
  m.tokens.inc(static_cast<std::uint64_t>(tokens.size()));
  obs::ScopedLatency latency(m.step_us);
  obs::Span span("infer/step", "gpt");
  const Config& c = model_->config();
  if (batch_ == 0)
    throw std::logic_error("InferenceSession::step before reset()");
  if (static_cast<Index>(tokens.size()) != batch_)
    throw std::invalid_argument("InferenceSession::step: token count != batch");
  if (pos_ >= c.context)
    throw std::runtime_error("InferenceSession::step: context exhausted");
  const Index d = c.d_model;

  // Embedding: x = wte[token] + wpe[pos].
  const float* wte = model_->wte().table().data().data();
  const float* wpe_row = model_->wpe().table().data().data() + pos_ * d;
  for (Index i = 0; i < batch_; ++i) {
    const int tok = tokens[i];
    if (tok < 0 || tok >= c.vocab)
      throw std::invalid_argument("InferenceSession::step: token out of range");
    const float* te = wte + static_cast<Index>(tok) * d;
    float* xr = x_.data() + i * d;
    for (Index j = 0; j < d; ++j) xr[j] = te[j] + wpe_row[j];
  }

  if (scores_.size() < static_cast<std::size_t>(pos_ + 1))
    scores_.resize(static_cast<std::size_t>(c.context));
  if (qweights_ != nullptr)
    forward(*qweights_);
  else
    forward(*pweights_);
  ++pos_;
  logits_ready_ = true;
  return {logits_.data(), static_cast<std::size_t>(batch_ * c.vocab)};
}

template <class M>
void InferenceSession::forward(const DerivedWeights<M>& w) {
  const Config& c = model_->config();
  const Index d = c.d_model, heads = c.n_heads, dh = d / heads;
  const float scale = 1.f / std::sqrt(static_cast<float>(dh));
  float* const scores = scores_.data();
  for (Index l = 0; l < c.n_layers; ++l) {
    const Block& blk = model_->blocks()[static_cast<std::size_t>(l)];
    const BlockWeights<M>& wb = w.blocks[static_cast<std::size_t>(l)];
    // Attention: h = ln1(x); qkv = h·Wqkv+b; cache k,v; attend; x += proj.
    nn::kernels::layernorm_rows(batch_, d, x_.data(),
                                blk.ln1.gain().data().data(),
                                blk.ln1.bias().data().data(), h_.data());
    project(wb.qkv, h_.data(), blk.qkv.bias().data().data(), qkv_.data());
    float* kc = kcache_[static_cast<std::size_t>(l)].data();
    float* vc = vcache_[static_cast<std::size_t>(l)].data();
    for (Index i = 0; i < batch_; ++i) {
      const float* krow = qkv_.data() + i * 3 * d + d;
      const float* vrow = qkv_.data() + i * 3 * d + 2 * d;
      float* kdst = kc + (i * c.context + pos_) * d;
      float* vdst = vc + (i * c.context + pos_) * d;
      for (Index j = 0; j < d; ++j) {
        kdst[j] = krow[j];
        vdst[j] = vrow[j];
      }
    }
    for (Index i = 0; i < batch_; ++i) {
      const float* q = qkv_.data() + i * 3 * d;
      float* out = att_.data() + i * d;
      for (Index hh = 0; hh < heads; ++hh) {
        const float* qh = q + hh * dh;
        float mx = -1e30f;
        for (Index s = 0; s <= pos_; ++s) {
          const float* kh = kc + (i * c.context + s) * d + hh * dh;
          float acc = 0.f;
          for (Index j = 0; j < dh; ++j) acc += qh[j] * kh[j];
          scores[s] = acc * scale;
          mx = std::max(mx, scores[s]);
        }
        float z = 0.f;
        for (Index s = 0; s <= pos_; ++s) {
          scores[s] = std::exp(scores[s] - mx);
          z += scores[s];
        }
        const float inv = 1.f / z;
        float* oh = out + hh * dh;
        for (Index j = 0; j < dh; ++j) oh[j] = 0.f;
        for (Index s = 0; s <= pos_; ++s) {
          const float p = scores[s] * inv;
          const float* vh = vc + (i * c.context + s) * d + hh * dh;
          for (Index j = 0; j < dh; ++j) oh[j] += p * vh[j];
        }
      }
    }
    // x += proj(att)
    project(wb.proj, att_.data(), blk.proj.bias().data().data(), h_.data());
    for (Index i = 0; i < batch_ * d; ++i) x_[i] += h_[i];
    // MLP: x += fc2(gelu(fc1(ln2(x))))
    nn::kernels::layernorm_rows(batch_, d, x_.data(),
                                blk.ln2.gain().data().data(),
                                blk.ln2.bias().data().data(), h_.data());
    project(wb.fc1, h_.data(), blk.fc1.bias().data().data(), ff_.data());
    // Only the live batch's rows — ff_ may be capacity-sized (reset reuse).
    const Index ffn = batch_ * c.d_ff();
    for (Index idx = 0; idx < ffn; ++idx) ff_[idx] = gelu1(ff_[idx]);
    project(wb.fc2, ff_.data(), blk.fc2.bias().data().data(), h_.data());
    for (Index i = 0; i < batch_ * d; ++i) x_[i] += h_[i];
  }

  nn::kernels::layernorm_rows(batch_, d, x_.data(),
                              model_->ln_f().gain().data().data(),
                              model_->ln_f().bias().data().data(), h_.data());
  project(w.lm_head, h_.data(), model_->lm_head().bias().data().data(),
          logits_.data());
}

KvState InferenceSession::snapshot(Index row) const {
  const Config& c = model_->config();
  if (batch_ == 0)
    throw std::logic_error("InferenceSession::snapshot before reset()");
  if (row < 0 || row >= batch_)
    throw std::invalid_argument("InferenceSession::snapshot: row out of range");
  if (pos_ == 0)
    throw std::logic_error("InferenceSession::snapshot before any step()");
  const Index d = c.d_model;
  KvState s;
  s.len = pos_;
  s.k.resize(static_cast<std::size_t>(c.n_layers));
  s.v.resize(static_cast<std::size_t>(c.n_layers));
  for (Index l = 0; l < c.n_layers; ++l) {
    const float* kc =
        kcache_[static_cast<std::size_t>(l)].data() + row * c.context * d;
    const float* vc =
        vcache_[static_cast<std::size_t>(l)].data() + row * c.context * d;
    s.k[static_cast<std::size_t>(l)].assign(kc, kc + pos_ * d);
    s.v[static_cast<std::size_t>(l)].assign(vc, vc + pos_ * d);
  }
  const auto lr = logits_row(row);
  s.logits.assign(lr.begin(), lr.end());
  return s;
}

void InferenceSession::resume(const KvState& state, Index batch) {
  resume(state, batch, state.len);
}

void InferenceSession::resume(const KvState& state, Index batch, Index depth) {
  std::vector<const KvState*> states(static_cast<std::size_t>(batch), &state);
  resume_rows(states, depth);
}

void InferenceSession::resume_rows(std::span<const KvState* const> states,
                                   Index depth) {
  const Config& c = model_->config();
  if (states.empty())
    throw std::invalid_argument("InferenceSession::resume_rows: empty batch");
  if (depth < 0 || depth > c.context)
    throw std::invalid_argument(
        "InferenceSession::resume_rows: depth out of range");
  for (const KvState* s : states) {
    if (s == nullptr)
      throw std::invalid_argument("InferenceSession::resume_rows: null state");
    if (depth > s->len)
      throw std::invalid_argument(
          "InferenceSession::resume_rows: depth exceeds a state's length");
    if (static_cast<Index>(s->k.size()) != c.n_layers ||
        static_cast<Index>(s->v.size()) != c.n_layers)
      throw std::invalid_argument(
          "InferenceSession::resume_rows: layer count mismatch");
  }
  reset(static_cast<Index>(states.size()));
  const Index d = c.d_model;
  for (Index l = 0; l < c.n_layers; ++l) {
    float* kc = kcache_[static_cast<std::size_t>(l)].data();
    float* vc = vcache_[static_cast<std::size_t>(l)].data();
    for (Index i = 0; i < batch_; ++i) {
      const KvState& s = *states[static_cast<std::size_t>(i)];
      std::memcpy(kc + i * c.context * d,
                  s.k[static_cast<std::size_t>(l)].data(),
                  static_cast<std::size_t>(depth * d) * sizeof(float));
      std::memcpy(vc + i * c.context * d,
                  s.v[static_cast<std::size_t>(l)].data(),
                  static_cast<std::size_t>(depth * d) * sizeof(float));
    }
  }
  pos_ = depth;
  // Restore stored logits only when they correspond to this exact depth
  // for every row; a shallower resume recomputes them at the next step.
  bool full = true;
  for (const KvState* s : states)
    full = full && s->len == depth &&
           static_cast<Index>(s->logits.size()) == c.vocab;
  if (full) {
    for (Index i = 0; i < batch_; ++i)
      std::memcpy(logits_.data() + i * c.vocab,
                  states[static_cast<std::size_t>(i)]->logits.data(),
                  static_cast<std::size_t>(c.vocab) * sizeof(float));
  }
  logits_ready_ = full;
  kv_cache_metrics().prefill_saved.inc(
      static_cast<std::uint64_t>(depth * batch_));
}

std::span<const float> InferenceSession::prime(std::span<const int> prefix) {
  if (prefix.empty())
    throw std::invalid_argument("InferenceSession::prime: empty prefix");
  obs::ScopedLatency latency(InferMetrics::get().prime_us);
  std::vector<int> broadcast(static_cast<std::size_t>(batch_));
  std::span<const float> out;
  for (const int tok : prefix) {
    std::fill(broadcast.begin(), broadcast.end(), tok);
    out = step(broadcast);
  }
  return out;
}

std::span<const float> InferenceSession::logits_row(Index i) const {
  PPG_DCHECK(logits_ready_,
             "logits_row read before a step() or full-depth resume");
  const Index v = model_->config().vocab;
  return {logits_.data() + i * v, static_cast<std::size_t>(v)};
}

std::vector<float> next_token_distribution(const GptModel& model,
                                           std::span<const int> prefix) {
  InferenceSession session(model);
  session.reset(1);
  const auto logits = session.prime(prefix);
  std::vector<float> probs(logits.begin(), logits.end());
  float mx = probs[0];
  for (const float v : probs) mx = std::max(mx, v);
  double z = 0.0;
  for (auto& v : probs) {
    v = std::exp(v - mx);
    z += v;
  }
  for (auto& v : probs) v = static_cast<float>(v / z);
  return probs;
}

double sequence_log_prob(const GptModel& model, std::span<const int> ids) {
  if (ids.size() < 2)
    throw std::invalid_argument("sequence_log_prob: need at least two tokens");
  if (static_cast<Index>(ids.size()) > model.config().context)
    throw std::invalid_argument("sequence_log_prob: sequence exceeds context");
  InferenceSession session(model);
  session.reset(1);
  double total = 0.0;
  for (std::size_t t = 0; t + 1 < ids.size(); ++t) {
    const int tok = ids[t];
    const auto logits = session.step(std::span<const int>(&tok, 1));
    // log softmax at the next token's index.
    float mx = logits[0];
    for (const float v : logits) mx = std::max(mx, v);
    double z = 0.0;
    for (const float v : logits) z += std::exp(double(v - mx));
    total += double(logits[static_cast<std::size_t>(ids[t + 1])] - mx) -
             std::log(z);
  }
  return total;
}

}  // namespace ppg::gpt
