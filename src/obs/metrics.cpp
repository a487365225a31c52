#include "obs/metrics.hpp"

#include <cmath>
#include <limits>

namespace cf::obs {

double HistogramSnapshot::percentile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count), reported as that bucket's upper bound.
  const double target = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(target);
  if (static_cast<double>(rank) < target || rank == 0) ++rank;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return Histogram::bucket_upper_bound(i);
  }
  return Histogram::bucket_upper_bound(buckets.size() - 1);
}

double Histogram::bucket_upper_bound(std::size_t i) noexcept {
  return kFloor * std::pow(kGrowth, static_cast<double>(i) + 1.0);
}

std::size_t Histogram::bucket_index(double value) noexcept {
  if (!(value > kFloor)) return 0;  // incl. NaN and negatives
  const double idx = std::log(value / kFloor) / std::log(kGrowth);
  if (idx >= static_cast<double>(kBuckets - 1)) return kBuckets - 1;
  return static_cast<std::size_t>(idx);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (snap.count > 0) {
    snap.min = min_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

}  // namespace cf::obs
