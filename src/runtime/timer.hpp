// Wall-clock timing utilities used by the per-layer and per-category
// profiles (Table I, Fig 3) and by the bench harnesses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace cf::runtime {

/// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates independent timing observations and reports summary
/// statistics. Not thread safe; use one per thread and merge.
class TimeStats {
 public:
  void add(double seconds) {
    total_ += seconds;
    min_ = std::min(min_, seconds);
    max_ = std::max(max_, seconds);
    ++count_;
    sum_sq_ += seconds * seconds;
  }

  void merge(const TimeStats& other) {
    total_ += other.total_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_sq_ += other.sum_sq_;
  }

  std::size_t count() const noexcept { return count_; }
  double total() const noexcept { return total_; }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : total_ / static_cast<double>(count_);
  }
  double stddev() const noexcept {
    if (count_ < 2) return 0.0;
    const double n = static_cast<double>(count_);
    const double var = (sum_sq_ - total_ * total_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }

 private:
  double total_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = 0.0;
  double sum_sq_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace cf::runtime
