// Ordered (best-first) vs sampled leaf generation: hit-rate per guess
// budget (DESIGN.md §13).
//
// Trains (or loads from cache) a PagPassGPT on the rockyou-like corpus,
// then runs the same D&C-GEN job at each guess budget twice — once with
// sampled leaves (the paper's scheme) and once with ordered leaves
// (best-first enumeration, src/search) — and scores both guess lists
// against the held-out test split. Best-first emits each leaf's guesses in
// exactly descending model probability with no duplicates, so its hit rate
// must dominate i.i.d. sampling at every budget; the bench aborts if it
// ever doesn't. The per-budget curve points land in the perf trajectory
// (BENCH_ordered.json) that ppg_perfgate gates CI against.
//
// Flags beyond the standard bench set (common.h):
//   --model=tiny|small|bench|paper  transformer size (default small)
//   --budgets=<csv>                 guess budgets (default 250,500,1000,2000)
//   --threshold=<t>                 division threshold T (default 64)
//   --threads=<n>                   leaf worker threads (default 1)
//   --max-expansions=<n>            per-leaf forward-pass cap (default 2048;
//                                   0 = unlimited — can be very slow on a
//                                   weakly trained model, see DESIGN.md §13)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "common/check.h"
#include "common/cli.h"
#include "core/dcgen.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

using namespace ppg;

namespace {

std::vector<std::size_t> parse_budgets(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(std::stoull(item));
  PPG_CHECK(!out.empty(), "empty --budgets");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Split argv into this bench's own flags and the standard set parse_env
  // understands (its Cli rejects unknown flags).
  const std::set<std::string> own = {"model", "budgets", "threshold",
                                     "threads", "max-expansions"};
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
  auto env = bench::parse_env(static_cast<int>(fwd.size()), fwd.data());
  const Cli cli(static_cast<int>(mine.size()), mine.data(),
                {"model", "budgets", "threshold", "threads", "max-expansions"});
  const std::string model_name = cli.get("model", "small");
  try {
    env.model_cfg = gpt::Config::by_name(model_name);
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "bench_ordered_vs_sampled: unknown --model '%s'\n",
                 model_name.c_str());
    return 2;
  }
  const auto budgets = parse_budgets(cli.get("budgets", "250,500,1000,2000"));
  const double threshold = cli.get_double("threshold", 64.0);
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  const auto max_expansions =
      static_cast<std::size_t>(cli.get_int("max-expansions", 2048));

  // The trajectory file is named after the report, not argv[0]:
  // "bench_ordered" -> BENCH_ordered.json (the committed baseline).
  obs::RunReport::global().set_name("bench_ordered");

  bench::print_preamble(env,
                        "== Ordered vs sampled decoding: hit rate per guess "
                        "budget ==");
  std::printf("model=%s threshold=%.0f threads=%d budgets=%s "
              "max_expansions=%zu\n",
              model_name.c_str(), threshold, threads,
              cli.get("budgets", "250,500,1000,2000").c_str(),
              max_expansions);

  const auto site = bench::load_site(env, data::rockyou_profile());
  const auto pag = bench::get_pagpassgpt(env, "rockyou", site);
  const eval::TestSet test(site.split.test);
  std::printf("test set: %zu unique passwords\n", test.size());

  eval::Table table({"Budget", "Sampled HR", "Ordered HR", "Sampled uniq",
                     "Ordered uniq", "Sampled s", "Ordered s"});
  double min_advantage = 1.0;
  for (const std::size_t budget : budgets) {
    core::DcGenConfig cfg;
    cfg.total = static_cast<double>(budget);
    cfg.threshold = threshold;
    cfg.threads = threads;
    cfg.ordered_max_expansions = max_expansions;

    const auto run = [&](core::LeafMode mode, core::DcGenStats& stats,
                         double& secs) {
      cfg.leaf_mode = mode;
      const bool ordered = mode == core::LeafMode::kOrdered;
      obs::StageTimer stage((ordered ? "dcgen/ordered_" : "dcgen/sampled_") +
                            std::to_string(budget));
      const auto start = std::chrono::steady_clock::now();
      auto out = core::dc_generate(pag->model(), pag->patterns(), cfg,
                                   env.seed ^ hash64("ordered-bench"), &stats);
      secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
      stage.set_items(double(out.size()));
      return out;
    };

    core::DcGenStats s_stats, o_stats;
    double s_secs = 0, o_secs = 0;
    const auto sampled = run(core::LeafMode::kSampled, s_stats, s_secs);
    const auto ordered = run(core::LeafMode::kOrdered, o_stats, o_secs);
    const double s_hr = eval::hit_rate(sampled, test);
    const double o_hr = eval::hit_rate(ordered, test);

    table.add_row({eval::count(budget), eval::pct(s_hr), eval::pct(o_hr),
                   eval::count(s_stats.unique_emitted),
                   eval::count(o_stats.unique_emitted), eval::num(s_secs, 2),
                   eval::num(o_secs, 2)});
    PPG_CHECK(o_hr >= s_hr,
              "ordered decoding lost to sampling at budget %zu "
              "(%.4f < %.4f) — best-first enumeration is broken",
              budget, o_hr, s_hr);
    PPG_CHECK(o_stats.unique_emitted == o_stats.emitted,
              "ordered run emitted duplicates (%zu unique of %zu)",
              o_stats.unique_emitted, o_stats.emitted);
    min_advantage = std::min(min_advantage, o_hr - s_hr);

    const std::string suffix = std::to_string(budget);
    bench::track_metric("ordered.hit_rate_" + suffix, o_hr);
    bench::track_metric("sampled.hit_rate_" + suffix, s_hr);
    if (o_secs > 0.0)
      bench::track_metric("ordered.guesses_per_sec_" + suffix,
                          double(ordered.size()) / o_secs);
    if (s_secs > 0.0)
      bench::track_metric("sampled.guesses_per_sec_" + suffix,
                          double(sampled.size()) / s_secs);
    if (s_stats.emitted > 0)
      bench::track_metric("sampled.unique_frac_" + suffix,
                          double(s_stats.unique_emitted) /
                              double(s_stats.emitted));
  }
  table.print();
  std::printf("\nordered-over-sampled hit-rate advantage (min over budgets): "
              "%+.4f\n",
              min_advantage);

  auto& report = obs::RunReport::global();
  report.add_config("ordered.model", model_name);
  report.add_config("ordered.threshold", threshold);
  report.add_config("ordered.threads", std::uint64_t(threads));
  report.add_config("ordered.max_expansions", std::uint64_t(max_expansions));
  report.add_config("ordered.budgets",
                    cli.get("budgets", "250,500,1000,2000"));
  bench::track_metric("ordered.min_advantage", min_advantage);
  return 0;
}
