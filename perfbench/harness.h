// Plumbing shared by the benchmark workloads: arguments, the result line,
// process resource readings, obs-registry deltas, percentiles, the guess
// digest, set-up timing, and the corpus every workload starts from.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "eval/metrics.h"

namespace perfbench {

/// Seed of the corpus, the split and every model. The workload seed never
/// reaches them; it varies only the generated inputs.
inline constexpr std::uint64_t kCorpusSeed = 2024;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Decoded pinned checkpoint; `<model>.patterns` sits beside it.
  std::string model;
  /// Working directory inside the checkout (trace files).
  std::string work_dir;
};

/// Everything one workload run measured. main() prints it as the `RESULT`
/// line that run.py turns into the benchmark's result line.
struct Result {
  struct Metric {
    double value;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed output checks; any entry makes the run incorrect.
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed check (and prints it) unless `ok`.
  void check(bool ok, const std::string& what);
};

/// Wall seconds on a steady clock.
double wall_now();
/// User + system CPU seconds of this process so far.
double cpu_now();
/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Median and nearest-rank quantile (q in [0, 1]); 0 for an empty input.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);
/// `num / den`, or 0 when there is no base (the layer did no work).
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Deltas of obs-registry metrics since construction.
class RegistryDelta {
 public:
  RegistryDelta();
  double counter(const std::string& name) const;
  /// Sum of the observations a histogram took since construction.
  double hist_sum(const std::string& name) const;

 private:
  std::map<std::string, double> counters_, hist_sums_;
};

/// FNV-1a over a guess stream, with a separator byte after each guess.
class Digest {
 public:
  void add(std::string_view guess);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Times repeated set-ups. Each set-up is a sequence of named phases;
/// report() adds `setup_s` (median total) and `<phase>` (median of each),
/// all divided by `slowdown`.
class SetupTimer {
 public:
  void begin();
  /// Ends the phase that started at begin() or at the previous phase().
  void phase(const std::string& name);
  void end();
  void report(Result& r, double slowdown) const;

 private:
  double start_ = 0, mark_ = 0;
  std::vector<double> totals_;
  std::map<std::string, std::vector<double>> phases_;
};

/// Summed span durations by name from a trace written by the program's obs
/// tracer.
struct TraceTotals {
  std::map<std::string, double> seconds;
  double total(const std::string& name) const {
    const auto it = seconds.find(name);
    return it == seconds.end() ? 0 : it->second;
  }
};

/// Runs `fn` with the program's timing histograms and its trace file
/// (`path`) on, and returns the span totals the trace recorded.
TraceTotals traced(const std::string& path, const std::function<void()>& fn);

/// The rockyou-like corpus at the repository benches' scale (0.2 of the
/// Table II size), cleaned and split 7:1:2 with kCorpusSeed.
struct Corpus {
  std::vector<std::string> train;
  std::vector<std::string> valid;
  std::vector<std::string> test;
  ppg::eval::TestSet test_set;
};
Corpus load_corpus();

}  // namespace perfbench
