// No-autograd batched inference with cached keys and values.
//
// Training goes through nn::Graph; generation volume (millions of guesses)
// demands a fast path: this session keeps every consumed position's keys
// and values so each new token costs O(d² + pos·d) per sequence, processes
// a whole batch of sequences per step (one GEMM per projection over the
// rows fed), and sizes its scratch buffers once at reset.
//
// Every row is the list of its positions' KV blocks (KvBlock, attention.h)
// and its position is their count, so rows of one batch may sit at
// different depths: a row can start fresh, resume from any KvState, or sit
// a step out (InferenceSession::kIdle) with no compute while keeping its
// position and logits. A step writes one new block per fed row; snapshot(),
// resume() and prefill()'s identical rows share blocks and copy no K/V
// floats. A row's floats never depend on which other rows share its step
// (see kv_cache.h), which is what lets prefill() and the sampler's decode
// loop mix rows freely.
//
// Attention runs through gpt::attend (attention.h): all heads of a cached
// position at once, in SIMD registers, with every float bitwise equal to
// a per-(head, position) reference loop. That loop's sums are ordered
// by how the compiler vectorises it, which depends on the build's vector
// width (16 floats under AVX-512, 8 under AVX2), so the kernel reproduces
// that order for the width it is compiled at; clang builds and builds
// without AVX2 or -ffast-math (the sanitizer flavour) keep the loop.
//
// prefill() steps identical rows once: adjacent rows with the same tokens
// span and the same state (a D&C-GEN leaf's rows, a served request's
// rows) would compute the same floats, so the first of each run steps and
// the rest share its blocks and copy its logits.
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

/// One row of InferenceSession::prefill(): the tokens the row must have
/// consumed, and optionally a snapshot of a leading part of them to restore
/// instead of recomputing (state->len() <= tokens.size()). The snapshot only
/// needs to outlive the prefill() call: the row keeps its own references to
/// the blocks.
struct PrefillRow {
  std::span<const int> tokens;
  const KvState* state = nullptr;
};

/// One prefill() call's ledger, summed over its rows. Model work is the
/// infer.tokens counter: identical rows step once between them.
struct PrefillCounts {
  std::size_t tokens = 0;  ///< positions a snapshot did not restore
  std::size_t saved = 0;   ///< positions restored from snapshots
};

/// Batched incremental decoder over a GptModel's weights.
/// The model must outlive the session.
class InferenceSession {
 public:
  /// step() token for a row that sits the step out: nothing is computed for
  /// it, and its position and logits stay as they were.
  static constexpr int kIdle = -1;

  /// Binds to a model. Scratch is sized lazily at reset(). The model's
  /// derived weight view for `precision` (GptModel::packed() or
  /// quantized()) is built or reused immediately, so its one-time cost
  /// lands here rather than on the first step.
  explicit InferenceSession(const GptModel& model,
                            Precision precision = Precision::kFp32);

  /// Starts `batch` fresh rows at position 0, with no logits, dropping the
  /// rows' references to their blocks. Scratch buffers are reused when
  /// `batch` fits the largest batch this session has seen, so schedulers
  /// whose tail batches shrink (D&C-GEN, the serve layer) pay no
  /// reallocation; only a growing batch allocates. Re-binds the model's
  /// weight view too, so a session kept across a weight change
  /// (GptModel::load, train_lm) decodes the new weights from here on.
  void reset(Index batch);

  /// Puts row `row` on `state`: the row shares the state's blocks for
  /// positions [0, state.len()) and, when the state carries them, gets the
  /// logits after them — bitwise equivalent to stepping the snapshotted
  /// tokens on this row (per-row float op order is batch invariant; see
  /// kv_cache.h). Other rows are untouched. Throws std::invalid_argument
  /// for a state longer than the context, written by a model of another
  /// block size, or missing a block.
  void resume(Index row, const KvState& state);

  /// Resets to rows.size() rows and brings every row to the end of its
  /// tokens: restores its state's positions, then steps the rest, each row
  /// at its own position (a row that is done sits out). A row whose state
  /// covers all of its tokens gets the state's logits with no step. A row
  /// with the same tokens span (data and size) and state as the row before
  /// it shares that row's blocks and logits instead of stepping.
  /// Afterwards logits_row(i) is the next-token distribution after row i's
  /// tokens. Throws std::invalid_argument for a row with no tokens or a
  /// state deeper than its tokens. Adds both counts to the kv_cache
  /// prefill ledger.
  PrefillCounts prefill(std::span<const PrefillRow> rows);

  /// Feeds one token per row (tokens.size() == batch()); a row fed kIdle
  /// sits the step out. Each fed row advances its own position by one.
  /// Returns the next-token logits, row-major [batch, vocab]; rows that sat
  /// out keep theirs. The span is valid until the next step()/reset().
  /// Throws when a fed row's context window is exhausted.
  std::span<const float> step(std::span<const int> tokens);

  /// Forks row `row` out of this session: a KvState sharing the row's
  /// blocks for positions [0, position(row)), with a copy of its current
  /// logits row. The state stays valid after the session resets or is
  /// destroyed. Requires the row to have consumed a token.
  KvState snapshot(Index row) const;

  /// Logits row for row `i` after the last token it consumed.
  std::span<const float> logits_row(Index i) const;

  /// Next position row `row` will be fed (0 after reset).
  Index position(Index row) const;

  /// Number of rows in the current batch.
  Index batch() const noexcept { return batch_; }

  const Config& config() const noexcept { return model_->config(); }

  /// The numeric substrate this session runs its projections on.
  Precision precision() const noexcept { return precision_; }

 private:
  /// Points the session at the model's current view for precision_.
  void bind_weights();

  /// Gives row `to` row `from`'s blocks, and with them its position, and
  /// its logits.
  void copy_row(Index from, Index to);

  /// The layers, final layernorm and lm_head of one step over views `w`,
  /// for the rows in live_ (activation row j is session row live_[j]);
  /// writes their logits to `logits`, compact [live_.size(), vocab].
  template <class M>
  void forward(const DerivedWeights<M>& w, float* logits);

  /// y[m,n] = x[m,k]·W + bias for one Linear over m activation rows, by the
  /// layout of W: the column-panel fp32 kernel, or quantize-activations +
  /// int8 GEMM + dequant.
  void project(const nn::PackedMatrix& w, Index m, const float* x,
               const float* bias, float* y);
  void project(const nn::quant::QuantizedMatrix& w, Index m, const float* x,
               const float* bias, float* y);

  const GptModel* model_;
  Precision precision_ = Precision::kFp32;
  /// The model's weight view for precision_ (the other stays null).
  std::shared_ptr<const PackedWeights> pweights_;
  std::shared_ptr<const QuantizedWeights> qweights_;
  Index batch_ = 0;
  Index capacity_ = 0;  ///< largest batch the scratch is sized for
  /// Per row: the blocks of the positions it has consumed, in order (its
  /// next position is their count), and whether logits_ holds its logits
  /// (set by step() and by resuming a state that carries logits).
  std::vector<std::vector<KvBlock>> rows_;
  std::vector<char> ready_;
  /// Rows fed by the current step, ascending.
  std::vector<Index> live_;
  /// The current step's new block for each fed row, by activation row:
  /// forward() writes each layer's K and V into it.
  std::vector<float*> fresh_;
  // Scratch buffers reused across steps, indexed by activation row.
  std::vector<float> x_, h_, qkv_, att_, ff_;
  std::vector<float> logits_;      ///< [batch, vocab], by session row
  std::vector<float> step_logits_; ///< compact logits when rows sit out
  std::vector<float> scores_;  ///< attention scores, [heads, context]
  std::vector<int> feed_;      ///< prefill()'s per-step tokens
  // Int8 activation scratch (kInt8 only): quantized rows + their scales.
  std::vector<std::int8_t> qx_;
  std::vector<float> qs_;
};

/// log P(ids[1..]) under the model: the sum of next-token log-probabilities
/// of every token after the first (autoregressive chain rule, Eq. 3 of the
/// paper). For a full rule <BOS>‖pattern‖<SEP>‖pw‖<EOS> this is the joint
/// log-probability of the pattern *and* the password — exactly the model's
/// guessing-order score. Requires ids.size() >= 2 and within context.
double sequence_log_prob(const GptModel& model, std::span<const int> ids);

}  // namespace ppg::gpt
