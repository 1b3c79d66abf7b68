#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "data/corpus.h"
#include "obs/atlas.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("CHECK FAILED: %s\n", what.c_str());
  problems.push_back(what);
}

double wall_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& t) {
    return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return double(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

RegistryDelta::RegistryDelta() {
  // Every name the workloads read; looking one up registers it.
  auto& reg = ppg::obs::Registry::global();
  for (const char* name :
       {"infer.steps", "infer.tokens", "kv_cache.hits", "kv_cache.misses",
        "kv_cache.inserts", "kv_cache.evictions", "kv_cache.prefill_tokens",
        "kv_cache.prefill_saved", "search.nodes_expanded", "search.emitted",
        "search.truncated", "serve.batches", "serve.rows", "serve.rejected",
        "serve.timeouts", "serve.invalid"})
    counters_[name] = double(reg.counter(name).value());
  hist_sums_["infer.step_us"] = reg.histogram("infer.step_us").summary().sum;
}

double RegistryDelta::counter(const std::string& name) const {
  return double(ppg::obs::Registry::global().counter(name).value()) -
         counters_.at(name);
}

double RegistryDelta::hist_sum(const std::string& name) const {
  return ppg::obs::Registry::global().histogram(name).summary().sum -
         hist_sums_.at(name);
}

void Digest::add(std::string_view guess) {
  for (const char c : guess) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  h_ ^= 0xffu;
  h_ *= 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void SetupTimer::begin() { start_ = mark_ = wall_now(); }

void SetupTimer::phase(const std::string& name) {
  const double now = wall_now();
  phases_[name].push_back(now - mark_);
  mark_ = now;
}

void SetupTimer::end() { totals_.push_back(wall_now() - start_); }

void SetupTimer::report(Result& r, double slowdown) const {
  r.add("setup_s", median(totals_) / slowdown, "s");
  for (const auto& [name, v] : phases_) r.add(name, median(v) / slowdown, "s");
}

TraceTotals traced(const std::string& path, const std::function<void()>& fn) {
  ppg::obs::set_timing_enabled(true);
  if (!ppg::obs::trace_start(path))
    throw std::runtime_error("cannot open trace file " + path);
  fn();
  ppg::obs::trace_stop();
  ppg::obs::set_timing_enabled(false);
  std::string error;
  const auto atlas = ppg::obs::build_atlas(path, &error);
  if (!atlas)
    throw std::runtime_error("unreadable trace " + path + ": " + error);
  std::remove(path.c_str());
  TraceTotals totals;
  for (const auto& e : atlas->entries)
    totals.seconds[e.name] = e.total_us * 1e-6;
  return totals;
}

Corpus load_corpus() {
  auto profile = ppg::data::rockyou_profile();
  profile.unique_target = profile.unique_target / 5;
  auto split = ppg::data::split_712(
      ppg::data::clean(ppg::data::generate_site(profile, kCorpusSeed))
          .passwords,
      kCorpusSeed);
  ppg::eval::TestSet test_set(split.test);
  return {std::move(split.train), std::move(split.valid),
          std::move(split.test), std::move(test_set)};
}

}  // namespace perfbench
