#pragma once
// drw::obs metrics -- a small counter / gauge / histogram registry with a
// JSON snapshot, replacing ad-hoc stat plumbing for observability-grade
// numbers (round wall-time distribution, arena backlog, inventory
// hit/miss, per-lane rounds/messages).
//
// Hot-path contract mirrors the tracer: when disabled (the default) the
// instrumentation points cost one relaxed atomic load. Metric objects are
// created on demand, never destroyed, and safe to update from concurrent
// workers (plain atomics). Like tracing, metrics observe -- they never
// branch execution, so the determinism contract is unaffected.
//
// Enable via Registry::global().set_enabled(true), DRW_STATS=1, or the
// surfaces that do it for you (`drw serve --stats-json=`, bench_common).

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace drw::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram over uint64 samples: bucket b holds samples
/// whose bit width is b (i.e. values in [2^(b-1), 2^b); bucket 0 holds
/// exactly 0). 65 buckets cover the full uint64 range, so record() never
/// clamps. Concurrent record() is safe; the snapshot is not atomic across
/// buckets (fine for observability).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t sample) {
    buckets_[bucket_of(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }
  static std::size_t bucket_of(std::uint64_t sample) {
    return std::bit_width(sample);
  }
  /// Inclusive upper bound of a bucket (the largest sample it can hold).
  static std::uint64_t bucket_max(std::size_t bucket) {
    if (bucket == 0) return 0;
    if (bucket >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << bucket) - 1;
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : double(sum()) / double(n);
  }
  /// Upper bound of the smallest bucket prefix holding >= q of the mass
  /// (a coarse quantile: log2 buckets give it factor-2 resolution).
  std::uint64_t quantile_bound(double q) const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

class Registry {
 public:
  static Registry& global();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Lookup-or-create. Returned references stay valid for the process
  /// lifetime; hot loops should hoist the lookup out of the loop.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zero every metric (the names stay registered).
  void reset();

  /// Snapshot as a JSON object string: counters/gauges as numbers,
  /// histograms as {count, sum, mean, p50, p99, max, buckets:{...}} with
  /// only non-empty buckets listed (keyed by their inclusive upper bound).
  std::string snapshot_json() const;

 private:
  Registry() = default;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // name maps only; metric updates are lock-free
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace drw::obs
