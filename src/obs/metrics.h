// Process-wide metrics registry: counters, gauges, and log-bucketed
// histograms with a lock-free fast path.
//
// Design contract (see DESIGN.md §7):
//  - Named lookup pays a mutex exactly once, at registration; call sites
//    cache the returned reference (`static auto& c = …`) so the hot path is
//    a single relaxed atomic op.
//  - Metric objects are owned by their registry and are address-stable for
//    its lifetime; the global registry lives for the whole process.
//  - Updates from any number of threads are exact (atomics, no sampling):
//    the D&C-GEN thread-invariance test relies on this.
//  - Timed instrumentation (clock reads feeding latency histograms) is
//    gated on `timing_enabled()` so that, when off, instrumented hot loops
//    pay only a relaxed load + branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/thread_annotations.h"
#include "obs/clock.h"

namespace ppg::obs {

class JsonWriter;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar, with an atomic add for accumulating doubles and
/// an atomic raise for running maxima.
class Gauge {
 public:
  void set(double x) noexcept { v_.store(x, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  /// Raises the value to `x` when `x` is larger.
  void set_max(double x) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < x &&
           !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Histogram over non-negative values with fixed log2-scaled buckets.
///
/// Bucket i (0 < i < kBuckets-1) holds values v with 2^(i-1-kSubUnit) ≤ v
/// < 2^(i-kSubUnit); the first bucket absorbs everything below the range,
/// the last everything above. The layout covers ~[1.5e-5, 1.4e14], wide
/// enough for latencies in µs or ns and for dimensionless counts.
/// count/sum/min/max are exact; percentiles are estimated by linear
/// interpolation of the rank within the covering bucket (clamped to the
/// observed min/max), so a quantile is off by at most the spread of its
/// bucket and is exact when observations are uniform inside it.
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kSubUnit = 16;  ///< buckets reserved below 1.0

  void observe(double v) noexcept;

  /// Point-in-time summary. Reads are not synchronised against writers
  /// beyond per-field atomicity; exporters call this at quiescent points.
  struct Summary {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when empty
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double mean() const { return count == 0 ? 0.0 : sum / double(count); }
  };
  Summary summary() const;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() noexcept;

  /// Upper bound of bucket `i` (+inf for the last bucket).
  static double bucket_upper_bound(int i);

 private:
  static int bucket_index(double v) noexcept;

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Seeded at the identities of min/max so concurrent first observations
  // need no special casing; summary() reports 0 for an empty histogram.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Name → metric table. Registration (first lookup of a name) takes a
/// mutex; the returned references stay valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry used by all built-in instrumentation.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// One metric per line: `counter name value`, `gauge name value`,
  /// `histogram name count sum p50 p90 p95 p99 max`. Stable (sorted) order.
  std::string to_text() const;

  /// Snapshot as a JSON object {"counters":{…},"gauges":{…},
  /// "histograms":{name:{count,sum,min,max,mean,p50,p90,p95,p99}}}.
  std::string to_json() const;

  /// Writes the same snapshot into an in-progress JsonWriter (the run
  /// report embeds it under its own key).
  void write_json(JsonWriter& w) const;

  /// Zeroes every registered metric (tests). Names stay registered.
  void reset();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      PPG_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      PPG_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      PPG_GUARDED_BY(mu_);
};

/// Whether timed instrumentation (clock reads) is active. Defaults to the
/// truthiness of the PPG_METRICS environment variable; benches turn it on
/// when `--report` is requested.
bool timing_enabled() noexcept;
void set_timing_enabled(bool on) noexcept;

/// RAII latency probe: observes elapsed microseconds into `h` at scope
/// exit, or does nothing at all (no clock read) when timing is disabled.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h) noexcept
      : h_(timing_enabled() ? &h : nullptr), start_(h_ ? now_ns() : 0) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    if (h_) h_->observe(double(now_ns() - start_) * 1e-3);
  }

 private:
  Histogram* h_;
  std::int64_t start_;
};

}  // namespace ppg::obs
