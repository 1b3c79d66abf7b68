#include "gpt/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/check.h"
#include "common/durable_io.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppg::gpt {

namespace {

constexpr std::uint32_t kTrainCkptMagic = 0x50504354;  // "PPCT"
constexpr std::uint32_t kTrainCkptVersion = 1;

/// Order-sensitive 64-bit combine for the run fingerprint.
std::uint64_t fp_mix(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return splitmix64(s);
}

/// Fingerprint of everything that determines the training trajectory: the
/// hyperparameters, the pad token, and every training token. A checkpoint
/// from a different run must be rejected, not silently continued — resuming
/// over changed data would produce weights that belong to neither run.
std::uint64_t run_fingerprint(const TrainConfig& cfg, int pad_token,
                              const std::vector<std::vector<int>>& seqs) {
  std::uint64_t h = 0x5050ULL;
  h = fp_mix(h, static_cast<std::uint64_t>(cfg.epochs));
  h = fp_mix(h, static_cast<std::uint64_t>(cfg.batch_size));
  std::uint32_t bits;
  static_assert(sizeof bits == sizeof cfg.lr);
  std::memcpy(&bits, &cfg.lr, sizeof bits);
  h = fp_mix(h, bits);
  std::memcpy(&bits, &cfg.warmup_frac, sizeof bits);
  h = fp_mix(h, bits);
  h = fp_mix(h, cfg.cosine_decay ? 1 : 0);
  std::memcpy(&bits, &cfg.grad_clip, sizeof bits);
  h = fp_mix(h, bits);
  std::memcpy(&bits, &cfg.weight_decay, sizeof bits);
  h = fp_mix(h, bits);
  h = fp_mix(h, cfg.seed);
  h = fp_mix(h, static_cast<std::uint64_t>(pad_token));
  h = fp_mix(h, seqs.size());
  for (const auto& seq : seqs) {
    h = fp_mix(h, seq.size());
    for (const int t : seq) h = fp_mix(h, static_cast<std::uint64_t>(t));
  }
  return h;
}

/// Debug/sanitize-only numerics tripwire: after forward+backward every
/// parameter value and gradient must be finite. A NaN that enters the
/// optimizer state poisons all subsequent steps silently (AdamW moments
/// never recover), so catching it at the step that produced it — with the
/// parameter's name — is worth the full sweep. Release builds skip the
/// whole loop (kDchecksEnabled is constexpr-false); note -ffast-math
/// builds also can't run it meaningfully, which is one reason sanitized
/// builds drop -ffast-math (see the top-level CMakeLists).
void dcheck_finite_params(const nn::ParamList& params, std::size_t step) {
  if constexpr (!ppg::kDchecksEnabled) {
    (void)params;
    (void)step;
  } else {
    for (const auto& p : params.items()) {
      for (const float v : p.tensor.data())
        PPG_CHECK(std::isfinite(v), "non-finite value in '%s' after step %zu",
                  p.name.c_str(), step);
      for (const float g : p.tensor.grad())
        PPG_CHECK(std::isfinite(g),
                  "non-finite gradient in '%s' after step %zu", p.name.c_str(),
                  step);
    }
  }
}

}  // namespace

TrainReport train_lm(GptModel& model,
                     const std::vector<std::vector<int>>& train_seqs,
                     const std::vector<std::vector<int>>& valid_seqs,
                     const TrainConfig& cfg, int pad_token,
                     const EpochHook& hook) {
  if (cfg.epochs <= 0 || cfg.batch_size <= 0)
    throw std::invalid_argument("train_lm: epochs and batch_size must be > 0");
  const Index context = model.config().context;

  // Usable sequences: need at least one (input, target) pair and must fit.
  std::vector<std::size_t> usable;
  usable.reserve(train_seqs.size());
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < train_seqs.size(); ++i) {
    const auto len = static_cast<Index>(train_seqs[i].size());
    if (len >= 2 && len <= context + 1)
      usable.push_back(i);
    else
      ++skipped;
  }
  if (usable.empty())
    throw std::invalid_argument("train_lm: no usable training sequences");
  if (skipped > 0)
    log_warn("train_lm: skipped %zu sequences not fitting context", skipped);

  Rng shuffle_rng(cfg.seed, "train-shuffle");
  nn::AdamW::Config opt_cfg;
  opt_cfg.lr = cfg.lr;
  opt_cfg.weight_decay = cfg.weight_decay;
  nn::AdamW opt(model.params(), opt_cfg);

  const std::size_t steps_per_epoch =
      (usable.size() + static_cast<std::size_t>(cfg.batch_size) - 1) /
      static_cast<std::size_t>(cfg.batch_size);
  const std::size_t total_steps =
      steps_per_epoch * static_cast<std::size_t>(cfg.epochs);
  const std::size_t warmup_steps = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.warmup_frac * double(total_steps)));

  // Registry metrics (cached references; see src/obs/metrics.h).
  auto& obs_reg = obs::Registry::global();
  obs::Counter& m_steps = obs_reg.counter("train.steps");
  obs::Counter& m_tokens = obs_reg.counter("train.tokens");
  obs::Gauge& m_loss = obs_reg.gauge("train.loss");
  obs::Gauge& m_grad_norm = obs_reg.gauge("train.grad_norm");
  obs::Histogram& m_step_ms = obs_reg.histogram("train.step_ms");

  TrainReport report;
  nn::Graph g;
  std::size_t step = 0;

  // Durable checkpointing (optional): snapshot every complete piece of
  // trajectory state — parameters, optimizer moments, shuffle RNG, the
  // in-flight permutation, loss accumulators, and the step/epoch cursor —
  // so a killed run resumed from the latest good generation replays the
  // exact remaining steps and lands on bitwise-identical weights.
  std::unique_ptr<durable::CheckpointManifest> manifest;
  std::uint64_t fingerprint = 0;
  int start_epoch = 0;
  std::size_t resume_start = 0;
  double resume_epoch_loss = 0.0;
  std::size_t resume_epoch_batches = 0;
  bool restored_perm = false;
  if (cfg.checkpoint_every > 0) {
    if (cfg.checkpoint_dir.empty())
      throw std::invalid_argument(
          "train_lm: checkpoint_every > 0 requires checkpoint_dir");
    fingerprint = run_fingerprint(cfg, pad_token, train_seqs);
    manifest =
        std::make_unique<durable::CheckpointManifest>(cfg.checkpoint_dir);
    if (const auto entry = manifest->latest_good()) {
      durable::checked_load(
          manifest->file_path(entry->files.at(0)), [&](BinaryReader& r) {
            if (r.read<std::uint32_t>() != kTrainCkptMagic)
              throw std::runtime_error(
                  "train_lm: not a training checkpoint");
            if (r.read<std::uint32_t>() != kTrainCkptVersion)
              throw std::runtime_error(
                  "train_lm: unsupported training checkpoint version");
            if (r.read<std::uint64_t>() != fingerprint)
              throw std::runtime_error(
                  "train_lm: checkpoint fingerprint mismatch (different "
                  "config or training data); refusing to resume");
            start_epoch = r.read<std::int32_t>();
            step = r.read<std::uint64_t>();
            resume_start = r.read<std::uint64_t>();
            resume_epoch_loss = r.read<double>();
            resume_epoch_batches = r.read<std::uint64_t>();
            report.epoch_loss = r.read_vector<double>();
            report.valid_nll = r.read_vector<double>();
            std::array<std::uint64_t, 4> rng_state;
            for (auto& word : rng_state) word = r.read<std::uint64_t>();
            shuffle_rng.set_state(rng_state);
            const auto perm = r.read_vector<std::uint64_t>();
            if (perm.size() != usable.size())
              throw std::runtime_error(
                  "train_lm: checkpoint permutation size mismatch");
            for (std::size_t i = 0; i < perm.size(); ++i)
              usable[i] = static_cast<std::size_t>(perm[i]);
            model.params().load(r);
            opt.load(r);
          });
      model.invalidate_views();
      restored_perm = true;
      report.resumed_from_step = step;
      log_info("train_lm: resumed from checkpoint at step %zu (epoch %d)",
               step, start_epoch + 1);
    }
  }
  const auto save_checkpoint = [&](int epoch, std::size_t next_start,
                                   double ep_loss, std::size_t ep_batches) {
    const std::string name = "ckpt-" + std::to_string(step) + ".bin";
    durable::atomic_save(manifest->file_path(name), [&](BinaryWriter& w) {
      w.write(kTrainCkptMagic);
      w.write(kTrainCkptVersion);
      w.write(fingerprint);
      w.write<std::int32_t>(epoch);
      w.write<std::uint64_t>(step);
      w.write<std::uint64_t>(next_start);
      w.write<double>(ep_loss);
      w.write<std::uint64_t>(ep_batches);
      w.write_vector(report.epoch_loss);
      w.write_vector(report.valid_nll);
      for (const std::uint64_t word : shuffle_rng.state()) w.write(word);
      const std::vector<std::uint64_t> perm(usable.begin(), usable.end());
      w.write_vector(perm);
      PPG_FAILPOINT("train.checkpoint.mid_write");
      model.params().save(w);
      opt.save(w);
    });
    manifest->publish(step, {name});
    manifest->prune(cfg.checkpoint_keep);
  };

  for (int epoch = start_epoch; epoch < cfg.epochs; ++epoch) {
    obs::Span epoch_span("train/epoch", "train");
    double epoch_loss = 0.0;
    std::size_t epoch_batches = 0;
    std::size_t first = 0;
    if (restored_perm) {
      // The permutation for this epoch was restored from the checkpoint;
      // re-shuffling would consume RNG draws the original run never made.
      first = resume_start;
      epoch_loss = resume_epoch_loss;
      epoch_batches = resume_epoch_batches;
      restored_perm = false;
    } else {
      shuffle_rng.shuffle(usable);
    }
    for (std::size_t start = first; start < usable.size();
         start += static_cast<std::size_t>(cfg.batch_size)) {
      const std::size_t end = std::min(
          usable.size(), start + static_cast<std::size_t>(cfg.batch_size));
      const Index batch = static_cast<Index>(end - start);
      Index time = 0;
      for (std::size_t i = start; i < end; ++i)
        time = std::max(
            time, static_cast<Index>(train_seqs[usable[i]].size()) - 1);
      std::vector<int> inputs(batch * time, pad_token);
      std::vector<int> targets(batch * time, -1);
      for (Index b = 0; b < batch; ++b) {
        const auto& seq = train_seqs[usable[start + static_cast<std::size_t>(b)]];
        for (std::size_t t = 0; t + 1 < seq.size(); ++t) {
          inputs[b * time + static_cast<Index>(t)] = seq[t];
          targets[b * time + static_cast<Index>(t)] = seq[t + 1];
        }
      }
      // LR schedule: linear warmup then cosine decay to 10% of peak.
      double lr_scale;
      if (step < warmup_steps) {
        lr_scale = double(step + 1) / double(warmup_steps);
      } else if (cfg.cosine_decay && total_steps > warmup_steps) {
        const double progress = double(step - warmup_steps) /
                                double(total_steps - warmup_steps);
        lr_scale = 0.1 + 0.9 * 0.5 * (1.0 + std::cos(3.141592653589793 * progress));
      } else {
        lr_scale = 1.0;
      }
      opt.lr() = static_cast<float>(cfg.lr * lr_scale);

      const std::int64_t step_start =
          obs::timing_enabled() ? obs::now_ns() : 0;
      g.clear();
      const nn::Tensor loss =
          model.loss(g, inputs, targets, batch, time, -1, nullptr);
      g.backward(loss);
      PPG_DCHECK(std::isfinite(loss.at(0)), "loss diverged at step %zu: %f",
                 step, double(loss.at(0)));
      const double grad_norm = model.params().clip_grad_norm(cfg.grad_clip);
      PPG_DCHECK(std::isfinite(grad_norm),
                 "gradient norm diverged at step %zu", step);
      opt.step();
      // The weights moved: derived views built by an earlier EpochHook
      // decode (or before training) would now be stale.
      model.invalidate_views();
      dcheck_finite_params(model.params(), step);
      epoch_loss += double(loss.at(0));
      ++epoch_batches;
      ++step;
      m_steps.inc();
      m_tokens.inc(static_cast<std::uint64_t>(batch) *
                   static_cast<std::uint64_t>(time));
      m_loss.set(double(loss.at(0)));
      m_grad_norm.set(grad_norm);
      if (step_start != 0)
        m_step_ms.observe(double(obs::now_ns() - step_start) * 1e-6);
      PPG_FAILPOINT("train.after_step");
      if (manifest && step % cfg.checkpoint_every == 0)
        save_checkpoint(epoch, end, epoch_loss, epoch_batches);
      if (cfg.log_every > 0 && step % static_cast<std::size_t>(cfg.log_every) == 0)
        log_info("train_lm: step %zu/%zu loss=%.4f lr=%.2e", step, total_steps,
                 loss.at(0), double(opt.lr()));
    }
    g.clear();
    const double mean_loss =
        epoch_batches == 0 ? 0.0 : epoch_loss / double(epoch_batches);
    report.epoch_loss.push_back(mean_loss);
    double vnll = 0.0;
    if (!valid_seqs.empty()) {
      obs::Span valid_span("train/validate", "train");
      vnll = model.evaluate_nll(valid_seqs, cfg.batch_size, pad_token);
      report.valid_nll.push_back(vnll);
    }
    if (hook) hook(epoch, mean_loss, vnll);
    if (cfg.log_every > 0)
      log_info("train_lm: epoch %d/%d train=%.4f valid=%.4f", epoch + 1,
               cfg.epochs, mean_loss, vnll);
  }
  report.steps = step;
  return report;
}

}  // namespace ppg::gpt
