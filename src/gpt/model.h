// Decoder-only GPT-2-style transformer (paper §III-B).
//
// Architecture, matching GPT-2 modulo scale: token + learned position
// embeddings, N pre-LayerNorm decoder blocks (masked multi-head
// self-attention + 4x GELU MLP, both with residual connections), a final
// LayerNorm, and a linear language-modelling head producing a distribution
// over the tokenizer vocabulary.
//
// The paper trains d_model=256, 12 layers, 8 heads, context 32. Config
// carries those as Config::paper(); the bench default is a width/depth
// scaled-down variant suited to one CPU core (Config::bench()).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/packed.h"
#include "nn/quant.h"
#include "nn/tensor.h"

namespace ppg::gpt {

using nn::Index;

/// Model hyperparameters.
struct Config {
  Index vocab = 136;
  Index d_model = 64;
  Index n_layers = 4;
  Index n_heads = 4;
  Index context = 32;
  float dropout = 0.0f;

  /// The paper's published configuration (§IV-B1).
  static Config paper() { return {136, 256, 12, 8, 32, 0.0f}; }
  /// Default configuration for CPU benches (same context, scaled width).
  static Config bench() { return {136, 64, 4, 4, 32, 0.0f}; }
  /// Miniature configuration for unit tests. Context stays 32 so every
  /// real training rule (up to 27 tokens) fits even in the smallest model.
  static Config tiny() { return {136, 16, 2, 2, 32, 0.0f}; }
  /// Smallest configuration that learns pattern conditioning well enough
  /// to demonstrate the paper's effects (test fixtures, quick examples).
  static Config small() { return {136, 32, 2, 4, 32, 0.0f}; }
  /// The named configuration: "tiny", "small", "bench" or "paper". Throws
  /// std::invalid_argument naming the four choices for any other name.
  static Config by_name(const std::string& name);

  /// MLP hidden width (GPT-2 uses 4x).
  Index d_ff() const { return 4 * d_model; }
  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

/// One decoder block's parameters.
struct Block {
  nn::LayerNorm ln1;
  nn::Linear qkv;   ///< d_model -> 3*d_model
  nn::Linear proj;  ///< d_model -> d_model
  nn::LayerNorm ln2;
  nn::Linear fc1;   ///< d_model -> d_ff
  nn::Linear fc2;   ///< d_ff -> d_model
};

/// One block's Linear weights in a derived layout `M` (DESIGN.md §15).
/// LayerNorms and embeddings are not derived — they are O(d) next to the
/// O(d²) matmuls.
template <class M>
struct BlockWeights {
  M qkv, proj, fc1, fc2;
};

/// Every GEMM weight of the model in a derived layout `M`, built lazily
/// from the fp32 parameters (GptModel::packed(), GptModel::quantized()).
template <class M>
struct DerivedWeights {
  std::vector<BlockWeights<M>> blocks;
  M lm_head;
};

/// fp32 column-panel copies (nn/packed.h): the weights every fp32 decode
/// step streams. They share one block, laid out in the order a step reads
/// them — layer by layer qkv, proj, fc1, fc2, then lm_head — so a step
/// sweeps it front to back.
struct PackedWeights : DerivedWeights<nn::PackedMatrix> {
  std::vector<float> storage;
};
/// Per-channel int8 quantization (nn/quant.h).
using QuantizedWeights = DerivedWeights<nn::quant::QuantizedMatrix>;

/// The transformer. Owns parameters; forward passes build onto a caller-
/// provided autograd Graph (training) — the no-tape fast path lives in
/// infer.h.
class GptModel {
 public:
  /// Initialises parameters with GPT-2-style scaled normal init from a
  /// deterministic seed.
  GptModel(Config cfg, std::uint64_t seed);

  const Config& config() const noexcept { return cfg_; }

  /// Parameter registry (optimizer + checkpoint walks).
  nn::ParamList& params() noexcept { return params_; }
  const nn::ParamList& params() const noexcept { return params_; }

  /// Forward pass over a flattened batch of `batch` sequences of length
  /// `time` (ids.size() == batch*time, batch-major). Returns logits
  /// [batch*time, vocab]. `dropout_rng` enables training dropout.
  nn::Tensor forward(nn::Graph& g, const std::vector<int>& ids, Index batch,
                     Index time, Rng* dropout_rng = nullptr) const;

  /// Next-token cross-entropy loss: forward(inputs) scored against
  /// `targets` (same layout), ignoring positions whose target is
  /// `ignore_index`. Returns a scalar tensor.
  nn::Tensor loss(nn::Graph& g, const std::vector<int>& inputs,
                  const std::vector<int>& targets, Index batch, Index time,
                  int ignore_index, Rng* dropout_rng = nullptr) const;

  /// Average per-token negative log-likelihood of a dataset slice without
  /// touching any autograd machinery (validation loops).
  double evaluate_nll(const std::vector<std::vector<int>>& sequences,
                      Index batch_size, int pad_token) const;

  /// Checkpoint I/O. Format: magic, config, then the parameter list.
  void save(const std::string& path) const;
  /// Loads a checkpoint; the stored config must equal this model's.
  void load(const std::string& path);

  // Weight access for the inference engine.
  const nn::Embedding& wte() const noexcept { return wte_; }
  const nn::Embedding& wpe() const noexcept { return wpe_; }
  const std::vector<Block>& blocks() const noexcept { return blocks_; }
  const nn::LayerNorm& ln_f() const noexcept { return ln_f_; }
  const nn::Linear& lm_head() const noexcept { return lm_head_; }

  /// Derived views of the GEMM weights: the fp32 column-panel copy every
  /// fp32 decode step reads, and the int8 copy of the quantized path.
  /// Each is built on first use and cached until invalidate_views()
  /// (threads racing here serialize on one mutex; a build is one-time).
  /// A caller holding a returned view keeps it alive: it stays a snapshot
  /// of the weights it was built from, never a dangling reference.
  std::shared_ptr<const PackedWeights> packed() const;
  std::shared_ptr<const QuantizedWeights> quantized() const;

  /// Drops the cached views so the next packed()/quantized() rebuilds
  /// them from the current weights. load() and train_lm call it; call it
  /// after changing weights in place any other way.
  void invalidate_views();

 private:
  Config cfg_;
  nn::ParamList params_;
  nn::Embedding wte_, wpe_;
  std::vector<Block> blocks_;
  nn::LayerNorm ln_f_;
  nn::Linear lm_head_;
  /// Lazily built derived views (see packed()); their own mutex keeps the
  /// one-time builds race-free without touching the fp32 accessor paths.
  struct ViewCache {
    Mutex mu;
    std::shared_ptr<const PackedWeights> packed PPG_GUARDED_BY(mu);
    std::shared_ptr<const QuantizedWeights> quantized PPG_GUARDED_BY(mu);
  };
  mutable ViewCache views_;
};

}  // namespace ppg::gpt
