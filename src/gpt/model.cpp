#include "gpt/model.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/durable_io.h"
#include "common/failpoint.h"
#include "common/serialize.h"

namespace ppg::gpt {

void Config::validate() const {
  if (vocab <= 0 || d_model <= 0 || n_layers <= 0 || n_heads <= 0 ||
      context <= 0)
    throw std::invalid_argument("gpt::Config: nonpositive dimension");
  if (d_model % n_heads != 0)
    throw std::invalid_argument("gpt::Config: d_model % n_heads != 0");
  if (dropout < 0.f || dropout >= 1.f)
    throw std::invalid_argument("gpt::Config: dropout outside [0,1)");
}

Config Config::by_name(const std::string& name) {
  if (name == "tiny") return tiny();
  if (name == "small") return small();
  if (name == "bench") return bench();
  if (name == "paper") return paper();
  throw std::invalid_argument("unknown model config '" + name +
                              "' (tiny|small|bench|paper)");
}

GptModel::GptModel(Config cfg, std::uint64_t seed) : cfg_(cfg) {
  cfg_.validate();
  Rng rng(seed, "gpt-init");
  wte_ = nn::Embedding(params_, "wte", cfg_.vocab, cfg_.d_model, rng);
  wpe_ = nn::Embedding(params_, "wpe", cfg_.context, cfg_.d_model, rng);
  // GPT-2 scales residual-path projections by 1/sqrt(2*n_layers).
  const float resid_scale =
      1.0f / std::sqrt(2.0f * static_cast<float>(cfg_.n_layers));
  blocks_.reserve(cfg_.n_layers);
  for (Index l = 0; l < cfg_.n_layers; ++l) {
    const std::string p = "h" + std::to_string(l);
    Block b;
    b.ln1 = nn::LayerNorm(params_, p + ".ln1", cfg_.d_model);
    b.qkv = nn::Linear(params_, p + ".qkv", cfg_.d_model, 3 * cfg_.d_model,
                       rng);
    b.proj = nn::Linear(params_, p + ".proj", cfg_.d_model, cfg_.d_model, rng,
                        resid_scale);
    b.ln2 = nn::LayerNorm(params_, p + ".ln2", cfg_.d_model);
    b.fc1 = nn::Linear(params_, p + ".fc1", cfg_.d_model, cfg_.d_ff(), rng);
    b.fc2 = nn::Linear(params_, p + ".fc2", cfg_.d_ff(), cfg_.d_model, rng,
                       resid_scale);
    blocks_.push_back(std::move(b));
  }
  ln_f_ = nn::LayerNorm(params_, "ln_f", cfg_.d_model);
  lm_head_ = nn::Linear(params_, "lm_head", cfg_.d_model, cfg_.vocab, rng);
}

nn::Tensor GptModel::forward(nn::Graph& g, const std::vector<int>& ids,
                             Index batch, Index time, Rng* dropout_rng) const {
  if (static_cast<Index>(ids.size()) != batch * time)
    throw std::invalid_argument("GptModel::forward: ids.size() != batch*time");
  if (time > cfg_.context)
    throw std::invalid_argument("GptModel::forward: time exceeds context");
  // Position ids repeat 0..time-1 per sequence.
  std::vector<int> pos(ids.size());
  for (Index b = 0; b < batch; ++b)
    for (Index t = 0; t < time; ++t) pos[b * time + t] = static_cast<int>(t);

  nn::Tensor x = g.add(g.embedding(ids, wte_.table()),
                       g.embedding(pos, wpe_.table()));
  const bool drop = dropout_rng != nullptr && cfg_.dropout > 0.f;
  if (drop) x = g.dropout(x, cfg_.dropout, *dropout_rng);
  for (const Block& blk : blocks_) {
    nn::Tensor att = blk.proj.forward(
        g, g.causal_self_attention(blk.qkv.forward(g, blk.ln1.forward(g, x)),
                                   batch, time, cfg_.n_heads));
    if (drop) att = g.dropout(att, cfg_.dropout, *dropout_rng);
    x = g.add(x, att);
    nn::Tensor mlp = blk.fc2.forward(
        g, g.gelu(blk.fc1.forward(g, blk.ln2.forward(g, x))));
    if (drop) mlp = g.dropout(mlp, cfg_.dropout, *dropout_rng);
    x = g.add(x, mlp);
  }
  return lm_head_.forward(g, ln_f_.forward(g, x));
}

nn::Tensor GptModel::loss(nn::Graph& g, const std::vector<int>& inputs,
                          const std::vector<int>& targets, Index batch,
                          Index time, int ignore_index,
                          Rng* dropout_rng) const {
  if (inputs.size() != targets.size())
    throw std::invalid_argument("GptModel::loss: input/target size mismatch");
  const nn::Tensor logits = forward(g, inputs, batch, time, dropout_rng);
  return g.cross_entropy(logits, targets, ignore_index);
}

double GptModel::evaluate_nll(const std::vector<std::vector<int>>& sequences,
                              Index batch_size, int pad_token) const {
  double total = 0.0;
  std::size_t tokens = 0;
  // Sequences that do not fit the context window are skipped (mirrors the
  // trainer's filtering).
  std::vector<const std::vector<int>*> usable;
  usable.reserve(sequences.size());
  for (const auto& seq : sequences)
    if (seq.size() >= 2 &&
        static_cast<Index>(seq.size()) <= cfg_.context + 1)
      usable.push_back(&seq);
  nn::Graph g;
  for (std::size_t start = 0; start < usable.size();
       start += static_cast<std::size_t>(batch_size)) {
    const std::size_t end =
        std::min(usable.size(), start + static_cast<std::size_t>(batch_size));
    const Index batch = static_cast<Index>(end - start);
    Index time = 0;
    for (std::size_t i = start; i < end; ++i)
      time = std::max(time, static_cast<Index>(usable[i]->size()) - 1);
    if (time <= 0) continue;
    std::vector<int> inputs(batch * time, pad_token);
    std::vector<int> targets(batch * time, -1);
    std::size_t counted = 0;
    for (Index b = 0; b < batch; ++b) {
      const auto& seq = *usable[start + b];
      for (std::size_t t = 0; t + 1 < seq.size(); ++t) {
        inputs[b * time + static_cast<Index>(t)] = seq[t];
        targets[b * time + static_cast<Index>(t)] = seq[t + 1];
        ++counted;
      }
    }
    if (counted == 0) continue;
    g.clear();
    const nn::Tensor l = loss(g, inputs, targets, batch, time, -1);
    total += double(l.at(0)) * double(counted);
    tokens += counted;
  }
  g.clear();
  return tokens == 0 ? 0.0 : total / double(tokens);
}

namespace {
constexpr std::uint32_t kMagic = 0x50504721;  // "PPG!"
constexpr std::uint32_t kVersion = 1;
}  // namespace

void GptModel::save(const std::string& path) const {
  durable::atomic_save(path, [this](BinaryWriter& w) {
    w.write(kMagic);
    w.write(kVersion);
    w.write(cfg_.vocab);
    w.write(cfg_.d_model);
    w.write(cfg_.n_layers);
    w.write(cfg_.n_heads);
    w.write(cfg_.context);
    w.write(cfg_.dropout);
    // Kill point between the header and the bulk of the payload: a crash
    // here must leave the previous checkpoint untouched on the final path.
    PPG_FAILPOINT("model.save.mid_write");
    params_.save(w);
  });
}

void GptModel::load(const std::string& path) {
  // Serving loads checkpoints from operator-supplied paths, so every
  // corruption mode must surface as a descriptive error — never as garbage
  // weights. The durable_io CRC footer catches truncation and bit damage
  // wholesale; the phase checks below then name what a *well-formed but
  // wrong* file contains (foreign magic, version skew, config mismatch).
  const auto fail = [&path](const std::string& what) -> std::runtime_error {
    return std::runtime_error("GptModel::load: " + path + ": " + what);
  };
  try {
    durable::checked_load_or_legacy(path, [&](BinaryReader& r) {
      const auto magic = r.read<std::uint32_t>();
      if (magic != kMagic)
        throw fail("bad magic 0x" + [magic] {
          char buf[16];
          std::snprintf(buf, sizeof buf, "%08x", magic);
          return std::string(buf);
        }() + " (not a PagPassGPT checkpoint)");
      const auto version = r.read<std::uint32_t>();
      if (version != kVersion)
        throw fail("unsupported checkpoint version " +
                   std::to_string(version) + " (this build reads version " +
                   std::to_string(kVersion) + ")");
      Config stored;
      stored.vocab = r.read<Index>();
      stored.d_model = r.read<Index>();
      stored.n_layers = r.read<Index>();
      stored.n_heads = r.read<Index>();
      stored.context = r.read<Index>();
      stored.dropout = r.read<float>();
      try {
        stored.validate();
      } catch (const std::exception& e) {
        throw fail(std::string("corrupt config block: ") + e.what());
      }
      if (stored.vocab != cfg_.vocab || stored.d_model != cfg_.d_model ||
          stored.n_layers != cfg_.n_layers || stored.n_heads != cfg_.n_heads ||
          stored.context != cfg_.context)
        throw fail("config mismatch: checkpoint has vocab=" +
                   std::to_string(stored.vocab) +
                   " d_model=" + std::to_string(stored.d_model) +
                   " n_layers=" + std::to_string(stored.n_layers) +
                   " n_heads=" + std::to_string(stored.n_heads) +
                   " context=" + std::to_string(stored.context) +
                   ", this model expects vocab=" + std::to_string(cfg_.vocab) +
                   " d_model=" + std::to_string(cfg_.d_model) +
                   " n_layers=" + std::to_string(cfg_.n_layers) +
                   " n_heads=" + std::to_string(cfg_.n_heads) +
                   " context=" + std::to_string(cfg_.context));
      try {
        params_.load(r);
      } catch (const std::exception& e) {
        throw fail(std::string("tensor data: ") + e.what());
      }
    });
  } catch (const std::runtime_error& e) {
    // durable_io and reader errors carry no GptModel context; wrap once.
    const std::string msg = e.what();
    if (msg.rfind("GptModel::load:", 0) == 0) throw;
    throw fail(msg);
  }
  invalidate_views();
}

namespace {

/// Fills `views` with convert(lin) for every projection, in decode-step
/// order: layer by layer qkv, proj, fc1, fc2, then lm_head.
template <class Views, class Convert>
void derive(Views& views, const std::vector<Block>& blocks,
            const nn::Linear& lm_head, Convert convert) {
  views.blocks.reserve(blocks.size());
  for (const Block& b : blocks)
    views.blocks.push_back(
        {convert(b.qkv), convert(b.proj), convert(b.fc1), convert(b.fc2)});
  views.lm_head = convert(lm_head);
}

}  // namespace

std::shared_ptr<const PackedWeights> GptModel::packed() const {
  MutexLock lock(views_.mu);
  if (views_.packed == nullptr) {
    const auto size = [](const nn::Linear& lin) {
      return nn::packed_size(lin.weight().dim(0), lin.weight().dim(1));
    };
    Index total = size(lm_head_);
    for (const Block& b : blocks_)
      total += size(b.qkv) + size(b.proj) + size(b.fc1) + size(b.fc2);
    auto views = std::make_unique<PackedWeights>();
    views->storage.resize(static_cast<std::size_t>(total));
    float* next = views->storage.data();
    derive(*views, blocks_, lm_head_, [&next](const nn::Linear& lin) {
      const nn::Tensor& w = lin.weight();  // [k, n] row-major
      const nn::PackedMatrix m{w.dim(1), w.dim(0), next};
      nn::pack_weights(w.data().data(), m.k, m.n, next);
      next += nn::packed_size(m.k, m.n);
      return m;
    });
    views_.packed = std::move(views);
  }
  return views_.packed;
}

std::shared_ptr<const QuantizedWeights> GptModel::quantized() const {
  MutexLock lock(views_.mu);
  if (views_.quantized == nullptr) {
    auto views = std::make_unique<QuantizedWeights>();
    derive(*views, blocks_, lm_head_, [](const nn::Linear& lin) {
      const nn::Tensor& w = lin.weight();  // [k, n] row-major
      return nn::quant::quantize_weights(w.data().data(), w.dim(0),
                                         w.dim(1));
    });
    views_.quantized = std::move(views);
  }
  return views_.quantized;
}

void GptModel::invalidate_views() {
  MutexLock lock(views_.mu);
  views_.packed.reset();
  views_.quantized.reset();
}

}  // namespace ppg::gpt
