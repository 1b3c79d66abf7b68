// trawl and ordered: D&C-GEN jobs on the pinned small PagPassGPT, repeated
// until Args::seconds of job wall time have been measured.
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_set>

#include "core/dcgen.h"
#include "core/pagpassgpt.h"
#include "obs/metrics.h"
#include "pcfg/pattern.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ppg::pcfg::PatternDistribution;

constexpr int kSetups = 7;
constexpr int kMinJobs = 3;
/// Leaves run on the calling thread, the thread that also runs the
/// reference jobs. With a pool, parallel_for hands each thread one fixed
/// chunk of leaves, so a job waited for its slowest core, and on a shared
/// host that spread job times by a quarter from run to run.
constexpr int kLeafThreads = 1;
/// Requested guesses per D&C-GEN call. Sampled leaves return fewer than
/// requested (capacity caps and dropped subtasks), and so do ordered
/// leaves that reach their expansion cap.
constexpr double kTrawlBudget = 200000;
constexpr double kOrderedBudget = 1500;
/// Per-leaf expansion cap, kept below the point where a leaf's frontier
/// overflows its 65,536-node cap and the search starts re-sorting it.
constexpr std::size_t kOrderedExpansions = 1024;
constexpr int kThreshold = 64;
/// The reference job run before the first job and after every job: a
/// D&C-GEN call on the reference build (reference.h) with a fixed seed,
/// over the whole pattern distribution, at half a job's work (an ordered
/// job makes two calls, one per half).
constexpr reference::OfflineJob kTrawlReference{false, kTrawlBudget / 2,
                                                kThreshold, 0};
constexpr reference::OfflineJob kOrderedReference{true, kOrderedBudget,
                                                  kThreshold,
                                                  kOrderedExpansions};
/// Wall seconds of the reference job and of the reference set-up on the
/// 4-core Xeon VM (AVX-512) the bounds were tuned on; a run's slowdown is
/// the median time it measures over these. They set the scale only.
constexpr double kTrawlReferenceS = 2.5;
constexpr double kOrderedReferenceS = 1.9;
constexpr double kSetupReferenceS = 0.025;

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t job) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (job + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Splits `all` into two seeded halves. Patterns are taken in probability
/// order in consecutive pairs and a coin sends one of each pair to each
/// half, so both halves have the shape of the whole distribution.
std::array<PatternDistribution, 2> seeded_halves(
    const PatternDistribution& all, std::uint64_t seed) {
  ppg::Rng rng(seed, "perfbench.ordered.half");
  std::array<PatternDistribution, 2> halves;
  const auto& sorted = all.sorted();
  const double total = double(all.total());
  std::size_t first = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i % 2 == 0) first = rng.bernoulli(0.5) ? 1 : 0;
    const auto count = std::uint64_t(sorted[i].second * total + 0.5);
    halves[i % 2 == 0 ? first : 1 - first].add(
        sorted[i].first, std::max<std::uint64_t>(1, count));
  }
  for (auto& h : halves) h.finalize();
  return halves;
}

/// One job: a D&C-GEN call per pattern distribution in `parts`.
struct Job {
  double wall_s = 0;
  double cpu_s = 0;
  std::size_t guesses = 0;
  ppg::core::DcGenStats stats;  ///< counts summed over the parts
  std::vector<std::vector<std::string>> out;  ///< one list per part
};

Job run_job(const ppg::gpt::GptModel& model,
            const std::vector<const PatternDistribution*>& parts,
            const ppg::core::DcGenConfig& cfg, std::uint64_t seed) {
  Job j;
  const double c0 = cpu_now(), t0 = wall_now();
  for (const auto* patterns : parts) {
    ppg::core::DcGenStats s;
    j.out.push_back(ppg::core::dc_generate(model, *patterns, cfg, seed, &s));
    j.stats.divisions += s.divisions;
    j.stats.model_calls += s.model_calls;
    j.stats.leaves += s.leaves;
    j.stats.dropped += s.dropped;
    j.stats.emitted += s.emitted;
    j.stats.unique_emitted += s.unique_emitted;
  }
  j.wall_s = wall_now() - t0;
  j.cpu_s = cpu_now() - c0;
  for (const auto& o : j.out) j.guesses += o.size();
  return j;
}

/// Checks one job's guesses; returns how many failed.
std::size_t check_job(const Job& j,
                      const std::vector<const PatternDistribution*>& parts,
                      bool ordered, Result& r) {
  std::size_t off_pattern = 0, duplicates = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const auto& g : j.out[p])
      if (parts[p]->prob(ppg::pcfg::pattern_of(g)) <= 0) ++off_pattern;
    if (ordered) {
      const std::unordered_set<std::string_view> unique(j.out[p].begin(),
                                                        j.out[p].end());
      duplicates += j.out[p].size() - unique.size();
    }
  }
  r.check(off_pattern == 0, std::to_string(off_pattern) +
                                " guesses conform to no targeted pattern");
  r.check(j.guesses > 0, "job returned no guesses");
  r.check(!ordered || (duplicates == 0 &&
                       j.stats.unique_emitted == j.stats.emitted),
          "ordered job emitted " + std::to_string(duplicates) +
              " duplicate guesses");
  return off_pattern + duplicates;
}

/// Per-layer counts of job 0, from its stats and the registry deltas
/// around it.
void add_job_counts(const Job& job, const RegistryDelta& c,
                    double flop_per_token, Result& r) {
  const auto& s = job.stats;
  r.add("core.divisions", double(s.divisions), "count");
  r.add("core.model_calls", double(s.model_calls), "count");
  r.add("core.leaves", double(s.leaves), "count");
  r.add("core.dropped", double(s.dropped), "count");
  r.add("core.unique_frac",
        ratio(double(s.unique_emitted), double(s.emitted)), "fraction");
  const double steps = c.counter("infer.steps");
  const double tokens = c.counter("infer.tokens");
  r.add("gpt.steps", steps, "count");
  r.add("gpt.tokens", tokens, "count");
  r.add("gpt.rows_per_step", ratio(tokens, steps), "rows");
  r.add("nn.gflop", tokens * flop_per_token * 1e-9, "GFLOP");
  const double hits = c.counter("kv_cache.hits");
  const double misses = c.counter("kv_cache.misses");
  const double expansions = c.counter("search.nodes_expanded");
  r.add("gpt.kv_hits", hits, "count");
  r.add("gpt.kv_misses", misses, "count");
  r.add("gpt.kv_inserts", c.counter("kv_cache.inserts"), "count");
  r.add("gpt.kv_evictions", c.counter("kv_cache.evictions"), "count");
  r.add("gpt.kv_hit_frac", ratio(hits, hits + misses), "fraction");
  const double saved = c.counter("kv_cache.prefill_saved");
  r.add("gpt.kv_prefill_saved_frac",
        ratio(saved, saved + c.counter("kv_cache.prefill_tokens")),
        "fraction");
  r.add("gpt.kv_lookups_per_expansion", ratio(hits + misses, expansions),
        "lookups");
  r.add("search.expansions", expansions, "count");
  r.add("search.emitted_per_kexpansion",
        ratio(1000 * c.counter("search.emitted"), expansions), "count");
  r.add("search.truncated", c.counter("search.truncated"), "count");
  r.add("search.heap_peak",
        ppg::obs::Registry::global().gauge("search.heap_peak").value(),
        "nodes");
}

}  // namespace

Result run_offline(const Args& args, bool ordered) {
  Result r;
  // Set-ups alternate with reference set-ups; their median over its
  // nominal time is the set-up's slowdown.
  SetupTimer setup;
  std::vector<double> reference_setups;
  std::optional<Corpus> corpus;
  std::unique_ptr<ppg::core::PagPassGPT> model;
  for (int i = 0; i < kSetups; ++i) {
    model.reset();
    corpus.reset();
    setup.begin();
    corpus.emplace(load_corpus());
    setup.phase("data.corpus_s");
    model = std::make_unique<ppg::core::PagPassGPT>(
        ppg::gpt::Config::small(), kCorpusSeed ^ ppg::hash64("pag"));
    model->load(args.model);
    setup.phase("gpt.model_s");
    setup.end();
    reference_setups.push_back(reference::offline_setup(args.model));
  }
  setup.report(r, median(reference_setups) / kSetupReferenceS);
  std::printf("%s: reference set-up %.4f s (median)\n", args.workload.c_str(),
              median(reference_setups));

  reference::load(args.model);
  const auto& reference_job = ordered ? kOrderedReference : kTrawlReference;
  const double reference_s = ordered ? kOrderedReferenceS : kTrawlReferenceS;

  ppg::core::DcGenConfig cfg;
  cfg.threads = kLeafThreads;
  cfg.threshold = kThreshold;
  cfg.total = ordered ? kOrderedBudget : kTrawlBudget;
  if (ordered) {
    cfg.leaf_mode = ppg::core::LeafMode::kOrdered;
    cfg.ordered_max_expansions = kOrderedExpansions;
  }
  const double flop_per_token = gemm_flop_per_token(model->model().config());
  const std::string trace_path = args.work_dir + "/perfbench-trace.json";

  // Warm-up, untimed: one job of the reference job's size on each build,
  // so lazy set-up and first-touch page faults land outside the timing.
  {
    ppg::core::DcGenConfig warm = cfg;
    warm.total = reference_job.total;
    ppg::core::dc_generate(model->model(), model->patterns(), warm,
                           kCorpusSeed);
    reference::offline_job(reference_job);
  }

  // Times as the clock read them; a reference job runs before the first
  // job and after every job, and the run's slowdown divides them below.
  std::vector<double> walls, rates, hit_rates, cpu_per_kguess;
  std::vector<double> reference_walls = {reference::offline_job(reference_job)};
  std::map<std::string, std::vector<double>> traced_s;  // per-layer seconds
  std::vector<double> overheads, tokens_traced;
  std::size_t jobs_ok = 0, guesses = 0;
  double elapsed = reference_walls.front(), job0_wall = 0;
  for (std::size_t i = 0; elapsed < args.seconds || i < kMinJobs; ++i) {
    // Generated inputs: the run seed of a trawl job; for an ordered job,
    // which way the pattern distribution splits into the two halves it
    // runs one after the other (ordered leaves ignore the run seed).
    const std::uint64_t seed = job_seed(args.seed, i);
    std::array<PatternDistribution, 2> halves;
    std::vector<const PatternDistribution*> parts = {&model->patterns()};
    if (ordered) {
      halves = seeded_halves(model->patterns(), seed);
      parts = {&halves[0], &halves[1]};
    }
    const std::uint64_t run_seed = ordered ? kCorpusSeed : seed;

    std::optional<RegistryDelta> counts;
    if (i == 0) {
      counts.emplace();
      ppg::obs::Registry::global().gauge("search.heap_peak").set(0);
    }
    const Job job = run_job(model->model(), parts, cfg, run_seed);
    reference_walls.push_back(reference::offline_job(reference_job));
    elapsed += job.wall_s + reference_walls.back();
    walls.push_back(job.wall_s);
    rates.push_back(double(job.guesses) / job.wall_s);
    cpu_per_kguess.push_back(job.cpu_s / (double(job.guesses) / 1000));
    guesses += job.guesses;

    // Outside the timed phase: checks and scoring. The parts target
    // disjoint patterns, so their hit rates add up.
    const std::size_t bad = check_job(job, parts, ordered, r);
    r.attempted += job.guesses;
    r.failed += bad;
    if (bad == 0 && job.guesses > 0) ++jobs_ok;
    double hit_rate = 0;
    for (const auto& o : job.out)
      hit_rate += ppg::eval::hit_rate(o, corpus->test_set);
    hit_rates.push_back(hit_rate);

    if (i == 0) {
      Digest digest;
      for (const auto& o : job.out)
        for (const auto& g : o) digest.add(g);
      std::printf("%s seed=%llu job0: %zu guesses, digest %s\n",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed), job.guesses,
                  digest.hex().c_str());
      if (args.trace) add_job_counts(job, *counts, flop_per_token, r);
      job0_wall = job.wall_s;
    }
    if (!args.trace) continue;

    // The same job again with the program's timing histograms and trace
    // on: the per-layer times, and the overhead tracing adds.
    Job tj;
    const RegistryDelta d;
    const TraceTotals t = traced(trace_path, [&] {
      tj = run_job(model->model(), parts, cfg, run_seed);
    });
    elapsed += tj.wall_s;
    overheads.push_back(tj.wall_s / job.wall_s - 1);
    tokens_traced.push_back(d.counter("infer.tokens"));
    traced_s["gpt.step_s"].push_back(d.hist_sum("infer.step_us") * 1e-6);
    traced_s["core.division_s"].push_back(t.total("dcgen/division_batch"));
    traced_s["core.leaf_s"].push_back(t.total("dcgen/leaf"));
    traced_s["core.leaves_s"].push_back(t.total("dcgen/leaves"));
  }

  // Every time below is divided by the run's slowdown. Medians over jobs
  // throughout: a core of the shared host runs a quarter slower for a
  // second or so at a time, which a sum or mean over a few jobs carries.
  const double slowdown = median(reference_walls) / reference_s;
  for (auto& w : walls) w /= slowdown;
  for (auto& rate : rates) rate *= slowdown;
  const double p50_s = median(walls);
  r.add("guesses_per_s", median(rates), "guesses/s");
  r.add("hit_rate", median(hit_rates), "fraction");
  r.add("latency_p50_ms", p50_s * 1e3, "ms");
  r.add("latency_p99_ms", quantile(walls, 0.99) * 1e3, "ms");
  r.add("goodput_rps", double(jobs_ok) / double(walls.size()) / p50_s,
        "req/s");
  r.add("cpu_s_per_kguess", median(cpu_per_kguess) / slowdown, "s/kguess");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("host.slowdown", slowdown, "ratio");
  if (args.trace) {
    const double expansions = r.metrics.at("search.expansions").value;
    r.add("search.expansions_per_s", expansions / (job0_wall / slowdown),
          "1/s");
    // Per traced job, then the median over them.
    std::vector<double> step_share, util, us_per_token, gflops;
    for (std::size_t k = 0; k < overheads.size(); ++k) {
      const double step_s = traced_s["gpt.step_s"][k] / slowdown;
      const double leaf_s = traced_s["core.leaf_s"][k] / slowdown;
      const double division_s = traced_s["core.division_s"][k] / slowdown;
      const double leaves_s = traced_s["core.leaves_s"][k] / slowdown;
      step_share.push_back(ratio(step_s, division_s + leaf_s));
      util.push_back(ratio(leaf_s, leaves_s * kLeafThreads));
      us_per_token.push_back(ratio(step_s * 1e6, tokens_traced[k]));
      gflops.push_back(
          ratio(tokens_traced[k] * flop_per_token * 1e-9, step_s));
    }
    for (const char* name : {"gpt.step_s", "core.division_s", "core.leaves_s"})
      r.add(name, median(traced_s[name]) / slowdown, "s");
    r.add("gpt.step_share", median(step_share), "fraction");
    r.add("core.leaf_thread_util", median(util), "fraction");
    r.add("gpt.us_per_token", median(us_per_token), "us");
    r.add("nn.gflops_per_s", median(gflops), "GFLOP/s");
    r.add("obs.trace_overhead_frac", median(overheads), "fraction");
    // The histogram's percentiles span every traced job.
    const auto steps =
        ppg::obs::Registry::global().histogram("infer.step_us").summary();
    r.add("gpt.step_p50_us", steps.p50 / slowdown, "us");
    r.add("gpt.step_p99_us", steps.p99 / slowdown, "us");
  }
  std::printf("%s: %zu jobs, %zu guesses, %.2f s of job and reference time; "
              "host slowdown %.3f, %.0f guesses/s as timed (medians)\n",
              args.workload.c_str(), walls.size(), guesses, elapsed, slowdown,
              median(rates) / slowdown);
  return r;
}

}  // namespace perfbench
