// Prefix-trie KV cache effectiveness (DESIGN.md §10).
//
// Runs the same D&C-GEN job twice — cache disabled, cache enabled — with
// identical config and seed, verifies the guess lists are byte-identical
// (the determinism contract of kv_cache.h), and reports the prefill
// ledger: token positions fed through the model while priming division
// batches and leaf generations, versus positions restored from cached
// states. The savings are structural — they depend on the division tree,
// not on the weights — so the bench uses a randomly initialised model of
// the requested size and a pattern distribution fitted to the synthetic
// rockyou-like corpus; no training step keeps even the paper config
// runnable in minutes.
//
// Flags beyond the standard bench set (common.h):
//   --model=tiny|small|bench|paper  transformer size (default small)
//   --total=<n>                     guess budget N (default 20000)
//   --threshold=<t>                 division threshold T (default 64)
//   --threads=<n>                   leaf worker threads (default 1)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "common/check.h"
#include "common/cli.h"
#include "core/dcgen.h"
#include "eval/report.h"
#include "pcfg/pcfg_model.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

using namespace ppg;

int main(int argc, char** argv) {
  // Split argv into this bench's own flags and the standard set parse_env
  // understands (its Cli rejects unknown flags).
  const std::set<std::string> own = {"model", "total", "threshold", "threads"};
  std::vector<char*> fwd{argv[0]}, mine{argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string name(argv[i]);
    if (name.rfind("--", 0) == 0) name = name.substr(2);
    if (const auto eq = name.find('='); eq != std::string::npos)
      name = name.substr(0, eq);
    auto& dst = own.contains(name) ? mine : fwd;
    dst.push_back(argv[i]);
    if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc &&
        std::strncmp(argv[i + 1], "--", 2) != 0)
      dst.push_back(argv[++i]);
  }
  const auto env = bench::parse_env(static_cast<int>(fwd.size()), fwd.data());
  const Cli cli(static_cast<int>(mine.size()), mine.data(),
                {"model", "total", "threshold", "threads"});
  const std::string model_name = cli.get("model", "small");
  const auto total = static_cast<double>(cli.get_int("total", 20000));
  const double threshold = cli.get_double("threshold", 64.0);
  const int threads = static_cast<int>(cli.get_int("threads", 1));

  bench::print_preamble(env, "== KV cache: prefill reuse across the D&C-GEN "
                             "tree ==");
  std::printf("model=%s total=%.0f threshold=%.0f threads=%d\n",
              model_name.c_str(), total, threshold, threads);

  // Pattern distribution from the synthetic corpus; random-init weights
  // (see header comment — savings are structural, training is not needed).
  const auto site = bench::load_site(env, data::rockyou_profile());
  pcfg::PcfgModel pcfg_model;
  pcfg_model.train(site.split.train);
  gpt::Config cfg_model;
  try {
    cfg_model = gpt::Config::by_name(model_name);
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "bench_kv_cache: unknown --model '%s'\n",
                 model_name.c_str());
    return 2;
  }
  const gpt::GptModel model(cfg_model, env.seed ^ hash64("kv-bench"));

  core::DcGenConfig cfg;
  cfg.total = total;
  cfg.threshold = threshold;
  cfg.threads = threads;
  cfg.sample.batch_size = 128;

  const auto run = [&](bool cached, core::DcGenStats& stats, double& secs) {
    cfg.kv_cache_bytes = cached ? core::DcGenConfig{}.kv_cache_bytes : 0;
    obs::StageTimer stage(cached ? "dcgen/cached" : "dcgen/uncached");
    const auto start = std::chrono::steady_clock::now();
    auto out = core::dc_generate(model, pcfg_model.patterns(), cfg,
                                 env.seed ^ hash64("kv-bench-run"), &stats);
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count();
    stage.set_items(double(out.size()));
    return out;
  };

  core::DcGenStats off_stats, on_stats;
  double off_secs = 0, on_secs = 0;
  const auto off = run(false, off_stats, off_secs);
  const auto on = run(true, on_stats, on_secs);

  PPG_CHECK(off == on,
            "cached and uncached guess lists differ (%zu vs %zu guesses) — "
            "the kv_cache.h determinism contract is broken",
            off.size(), on.size());
  std::printf("determinism: %zu guesses byte-identical cached vs uncached\n",
              off.size());

  const double reduction =
      off_stats.prefill_tokens == 0
          ? 0.0
          : 1.0 - double(on_stats.prefill_tokens) /
                      double(off_stats.prefill_tokens);
  eval::Table table({"Cache", "Prefill tokens", "Saved", "Model calls",
                     "Seconds"});
  table.add_row({"off", eval::count(off_stats.prefill_tokens),
                 eval::count(off_stats.prefill_saved),
                 eval::count(off_stats.model_calls), eval::num(off_secs, 2)});
  table.add_row({"on", eval::count(on_stats.prefill_tokens),
                 eval::count(on_stats.prefill_saved),
                 eval::count(on_stats.model_calls), eval::num(on_secs, 2)});
  table.print();
  std::printf("\nprefill-token reduction: %.1f%% (%zu -> %zu)\n",
              reduction * 100.0, off_stats.prefill_tokens,
              on_stats.prefill_tokens);

  // Knobs that shape the work are config (they feed the trajectory's
  // fingerprint); the ledger and timings are headline metrics.
  auto& report = obs::RunReport::global();
  report.add_config("kv.model", model_name);
  report.add_config("kv.total", total);
  report.add_config("kv.threshold", threshold);
  report.add_config("kv.threads", std::uint64_t(threads));
  bench::track_metric("kv.prefill_tokens", double(on_stats.prefill_tokens));
  bench::track_metric("kv.prefill_saved", double(on_stats.prefill_saved));
  bench::track_metric("kv.reduction_pct", reduction * 100.0);
  bench::track_metric("kv.model_calls", double(on_stats.model_calls));
  bench::track_metric("kv.uncached_secs", off_secs);
  bench::track_metric("kv.cached_secs", on_secs);
  if (on_secs > 0.0)
    bench::track_metric("kv.guesses_per_sec", double(on.size()) / on_secs);
  return 0;
}
