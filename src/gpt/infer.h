// No-autograd batched inference with per-layer KV caches.
//
// Training goes through nn::Graph; generation volume (millions of guesses)
// demands a fast path: this session keeps key/value caches per layer so each
// new token costs O(d² + pos·d) per sequence, processes a whole batch of
// sequences in lockstep (one GEMM per projection), and allocates all
// buffers once at reset.
//
// All sequences in a session advance together (same position). Callers that
// need ragged prefixes group them by length (see D&C-GEN's divider).
#pragma once

#include <span>
#include <vector>

#include "gpt/kv_cache.h"
#include "gpt/model.h"

namespace ppg::gpt {

/// Numeric substrate for a session's GEMMs. kFp32 is the reference (and
/// training) path: the projections read the model's column-panel weight
/// copy (nn/packed.h), bitwise equal to the row-major product. kInt8 runs
/// them through per-row absmax quantization + int8 GEMM (nn/quant.h) —
/// ~bounded logits error, higher throughput, identical bits on every SIMD
/// backend. Attention, layernorm and embeddings stay fp32 in both modes.
enum class Precision : int { kFp32 = 0, kInt8 = 1 };

constexpr const char* precision_name(Precision p) noexcept {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

/// Batched incremental decoder over a GptModel's weights.
/// The model must outlive the session.
class InferenceSession {
 public:
  /// Binds to a model. Buffers are sized lazily at reset(). The model's
  /// derived weight view for `precision` (GptModel::packed() or
  /// quantized()) is built or reused immediately, so its one-time cost
  /// lands here rather than on the first step.
  explicit InferenceSession(const GptModel& model,
                            Precision precision = Precision::kFp32);

  /// Starts `batch` fresh sequences at position 0. Buffers are reused when
  /// `batch` fits the largest batch this session has seen, so schedulers
  /// whose tail batches shrink (D&C-GEN, the serve layer) pay no
  /// reallocation; only a growing batch allocates. Re-binds the model's
  /// weight view too, so a session kept across a weight change
  /// (GptModel::load, train_lm) decodes the new weights from here on.
  void reset(Index batch);

  /// Feeds one token per sequence (tokens.size() == batch()) and returns
  /// the next-token logits, row-major [batch, vocab]. The returned span is
  /// valid until the next step()/reset(). Throws when the context window
  /// is exhausted.
  std::span<const float> step(std::span<const int> tokens);

  /// Feeds a shared prefix to every sequence; returns the logits after its
  /// last token. Equivalent to step() per prefix token with the same token
  /// broadcast across the batch.
  std::span<const float> prime(std::span<const int> prefix);

  /// Forks sequence `row` out of this session: copies its per-layer KV
  /// blocks for positions [0, position()) and its current logits row into
  /// a standalone KvState. Requires at least one step taken.
  KvState snapshot(Index row) const;

  /// Starts `batch` fresh sequences that all resume from `state`'s first
  /// `depth` positions — bitwise equivalent to reset(batch) followed by
  /// stepping the snapshotted prefix (per-sequence float op order is batch
  /// invariant; see kv_cache.h). When depth == state.len the stored
  /// logits are restored too, so logits_row() is immediately valid;
  /// resuming shallower requires a step() before reading logits.
  void resume(const KvState& state, Index batch);
  void resume(const KvState& state, Index batch, Index depth);

  /// Per-row resume at a uniform depth: sequence i resumes from
  /// states[i]'s first `depth` positions (requires depth <= states[i]->len
  /// for every i; entries must be non-null). Logits are valid only when
  /// every state's len equals `depth` exactly.
  void resume_rows(std::span<const KvState* const> states, Index depth);

  /// Logits row for sequence `i` from the last step.
  std::span<const float> logits_row(Index i) const;

  /// Next position to be fed (0 after reset).
  Index position() const noexcept { return pos_; }

  /// Number of sequences in the current batch.
  Index batch() const noexcept { return batch_; }

  const Config& config() const noexcept { return model_->config(); }

  /// The numeric substrate this session runs its projections on.
  Precision precision() const noexcept { return precision_; }

 private:
  /// Points the session at the model's current view for precision_.
  void bind_weights();

  /// The layers, final layernorm and lm_head of one step over views `w`.
  template <class M>
  void forward(const DerivedWeights<M>& w);

  /// y[batch,n] = x[batch,k]·W + bias for one Linear, by the layout of W:
  /// the column-panel fp32 kernel, or quantize-activations + int8 GEMM +
  /// dequant.
  void project(const nn::PackedMatrix& w, const float* x, const float* bias,
               float* y);
  void project(const nn::quant::QuantizedMatrix& w, const float* x,
               const float* bias, float* y);

  const GptModel* model_;
  Precision precision_ = Precision::kFp32;
  /// The model's weight view for precision_ (the other stays null).
  std::shared_ptr<const PackedWeights> pweights_;
  std::shared_ptr<const QuantizedWeights> qweights_;
  Index batch_ = 0;
  Index capacity_ = 0;  ///< largest batch the buffers are sized for
  Index pos_ = 0;
  /// Whether logits_ holds the current position's rows (set by step() and
  /// full-depth resume; cleared by reset() and partial resume).
  bool logits_ready_ = false;
  // Per layer: K and V caches, [batch, context, d_model] flattened.
  std::vector<std::vector<float>> kcache_, vcache_;
  // Scratch buffers reused across steps.
  std::vector<float> x_, h_, qkv_, att_, ff_, logits_;
  std::vector<float> scores_;  ///< attention-score scratch, one row
  // Int8 activation scratch (kInt8 only): quantized rows + their scales.
  std::vector<std::int8_t> qx_;
  std::vector<float> qs_;
};

/// One-shot convenience: next-token distribution (softmax of logits) after
/// `prefix` for a single sequence. Builds a throwaway session; use an
/// explicit session for anything hot.
std::vector<float> next_token_distribution(const GptModel& model,
                                           std::span<const int> prefix);

/// log P(ids[1..]) under the model: the sum of next-token log-probabilities
/// of every token after the first (autoregressive chain rule, Eq. 3 of the
/// paper). For a full rule <BOS>‖pattern‖<SEP>‖pw‖<EOS> this is the joint
/// log-probability of the pattern *and* the password — exactly the model's
/// guessing-order score. Requires ids.size() >= 2 and within context.
double sequence_log_prob(const GptModel& model, std::span<const int> ids);

}  // namespace ppg::gpt
