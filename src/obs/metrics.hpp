// cf::obs metrics — counters, stats and histograms, each owned by the
// object it measures.
//
// The paper's evidence is instrumentation (Fig 3's stage breakdown,
// Table I's per-layer costs, §III-D's hidden vs exposed allreduce
// time). An instrumented object holds these instruments as members and
// hands out snapshots through its own accessors (RankHandle::
// comm_time(), Pipeline::wait_time(), Server::latency(), …), so two
// instances never share, reset or overwrite each other's figures.
// There is no process-wide store. Three kinds:
//
//  * Counter — monotonically increasing 64-bit integer (accepted,
//    rejected and completed requests). Lock-free relaxed atomics: safe
//    to bump from any thread.
//  * Stat — an aggregated distribution of observations (seconds,
//    usually): count/total/min/max/stddev, i.e. a thread-safe
//    runtime::TimeStats. Collectives, optimizer steps and pipeline
//    waits record here; Trainer::breakdown() and EpochStats are views
//    over these.
//  * Histogram — a log-bucketed latency distribution answering
//    percentile queries (p50/p99/p999). A Stat's mean/min/max cannot
//    describe a serving latency tail; the inference service
//    (SERVING.md) records its end-to-end latencies here. Lock-free
//    relaxed atomics per bucket, same concurrency contract as Counter.
//    Alongside the buckets it tracks exact count/sum/min/max, so the
//    ~12%-resolution percentile estimates ship with exact anchors.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "runtime/timer.hpp"

namespace cf::obs {

/// Monotonic counter; relaxed atomics (no ordering is implied between
/// metric updates and the work they describe).
class Counter {
 public:
  void add(std::int64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Thread-safe observation aggregate (a mutex-guarded TimeStats).
/// Recording is one uncontended lock (~20 ns); instrumented sites sit
/// at span granularity (per layer call, per collective), never inside
/// compute kernels.
class Stat {
 public:
  void add(double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.add(value);
  }
  runtime::TimeStats snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }
  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_ = runtime::TimeStats{};
  }

 private:
  mutable std::mutex mutex_;
  runtime::TimeStats stats_;
};

/// RAII timer recording elapsed seconds into a Stat on scope exit.
class ScopedStatTimer {
 public:
  explicit ScopedStatTimer(Stat& stat) : stat_(stat) {}
  ScopedStatTimer(const ScopedStatTimer&) = delete;
  ScopedStatTimer& operator=(const ScopedStatTimer&) = delete;
  ~ScopedStatTimer() { stat_.add(watch_.elapsed_seconds()); }

 private:
  Stat& stat_;
  runtime::Stopwatch watch_;
};

/// Point-in-time copy of a Histogram's buckets, with percentile
/// evaluation. Bucket i counts observations in
/// [kFloor·kGrowth^i, kFloor·kGrowth^(i+1)); percentile() walks the
/// cumulative counts and returns the matched bucket's upper bound, so
/// estimates are conservative (never below the true quantile) and
/// resolve to within one kGrowth factor (~12%).
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Exact extremes of the observations (not bucket bounds); 0.0 when
  /// the histogram is empty. They bound the bucket-resolution
  /// percentile estimates — p99 == p999 at small counts just means
  /// both quantiles landed in the max's bucket.
  double min = 0.0;
  double max = 0.0;

  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double percentile(double q) const noexcept;
};

/// Log-bucketed distribution for percentile queries. The bucket grid
/// is fixed at compile time: kBuckets exponential buckets of growth
/// kGrowth starting at kFloor seconds (1 µs), covering ~1 µs..2000 s —
/// below/above that, observations clamp to the first/last bucket.
/// add() is one transcendental + two relaxed atomics (≈20 ns), safe
/// from any thread; placement is per-request granularity (the serving
/// path), never inside compute kernels.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 96;
  static constexpr double kFloor = 1e-6;
  static constexpr double kGrowth = 1.25;

  void add(double value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    double seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const;
  void reset() noexcept;

  /// Upper bound of bucket i: kFloor·kGrowth^(i+1).
  static double bucket_upper_bound(std::size_t i) noexcept;

 private:
  static std::size_t bucket_index(double value) noexcept;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace cf::obs
