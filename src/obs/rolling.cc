#include "obs/rolling.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace tsfm::obs {

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<int64_t> g_test_now_ns{-1};

void AtomicAddDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// True when epoch `e` still falls inside the window ending at `now_epoch`.
bool InWindow(int64_t e, int64_t now_epoch) {
  return e >= 0 && e <= now_epoch && now_epoch - e < kRollingSlots;
}

/// Same interpolation-with-clamping as Histogram::Percentile, over an
/// already-merged bucket array: clamping to the observed extrema keeps the
/// extremes exact instead of snapping to power-of-two bucket edges.
double PercentileFromBuckets(const uint64_t* buckets, uint64_t n, double mn,
                             double mx, double p) {
  if (n == 0) return 0.0;
  if (p <= 0.0) return mn;
  if (p >= 1.0) return mx;
  const double target = p * static_cast<double>(n);
  double cum = 0.0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const uint64_t c = buckets[i];
    if (c == 0) continue;
    if (cum + static_cast<double>(c) >= target) {
      const double lo = std::max(Histogram::BucketLowerBound(i), mn);
      const double hi = std::min(Histogram::BucketLowerBound(i + 1), mx);
      const double frac = (target - cum) / static_cast<double>(c);
      return lo + frac * (hi - lo);
    }
    cum += static_cast<double>(c);
  }
  return mx;
}

}  // namespace

namespace internal {

void SetRollingClockForTest(int64_t now_ns) {
  g_test_now_ns.store(now_ns, std::memory_order_relaxed);
}

int64_t RollingNowNs() {
  const int64_t t = g_test_now_ns.load(std::memory_order_relaxed);
  if (t >= 0) return t;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

}  // namespace internal

void RollingCounter::Add(uint64_t n) {
  const int64_t epoch = internal::RollingNowNs() / kRollingSlotNs;
  Slot& s = slots_[static_cast<size_t>(epoch % kRollingSlots)];
  int64_t seen = s.epoch.load(std::memory_order_acquire);
  if (seen != epoch &&
      s.epoch.compare_exchange_strong(seen, epoch,
                                      std::memory_order_acq_rel)) {
    // Rotation winner clears the expired slot. An Add racing the clear can
    // lose a couple of counts at the 5 s boundary; the window is an
    // estimate, the cumulative total_ below stays exact.
    s.count.store(0, std::memory_order_relaxed);
  }
  s.count.fetch_add(n, std::memory_order_relaxed);
  total_.fetch_add(n, std::memory_order_relaxed);
}

uint64_t RollingCounter::WindowCount() const {
  const int64_t now_epoch = internal::RollingNowNs() / kRollingSlotNs;
  uint64_t total = 0;
  for (const Slot& s : slots_) {
    if (InWindow(s.epoch.load(std::memory_order_acquire), now_epoch)) {
      total += s.count.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double RollingCounter::WindowRatePerSec() const {
  return static_cast<double>(WindowCount()) / kRollingWindowSeconds;
}

void RollingHistogram::Observe(double v) {
  const int64_t epoch = internal::RollingNowNs() / kRollingSlotNs;
  Slot& s = slots_[static_cast<size_t>(epoch % kRollingSlots)];
  int64_t seen = s.epoch.load(std::memory_order_acquire);
  if (seen != epoch &&
      s.epoch.compare_exchange_strong(seen, epoch,
                                      std::memory_order_acq_rel)) {
    s.count.store(0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s.max.store(-std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
  const int bi = Histogram::BucketIndex(v);
  s.buckets[bi].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  AtomicMinDouble(&s.min, v);
  AtomicMaxDouble(&s.max, v);

  buckets_[bi].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, v);
  AtomicMinDouble(&min_, v);
  AtomicMaxDouble(&max_, v);
}

double RollingHistogram::min() const {
  const double m = min_.load(std::memory_order_relaxed);
  return std::isinf(m) ? 0.0 : m;
}

double RollingHistogram::max() const {
  const double m = max_.load(std::memory_order_relaxed);
  return std::isinf(m) ? 0.0 : m;
}

double RollingHistogram::Percentile(double p) const {
  uint64_t buckets[Histogram::kNumBuckets];
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return PercentileFromBuckets(buckets, count(), min(), max(), p);
}

uint64_t RollingHistogram::CumulativeBucketCount(int i) const {
  return buckets_[i].load(std::memory_order_relaxed);
}

uint64_t RollingHistogram::WindowCount() const {
  const int64_t now_epoch = internal::RollingNowNs() / kRollingSlotNs;
  uint64_t total = 0;
  for (const Slot& s : slots_) {
    if (InWindow(s.epoch.load(std::memory_order_acquire), now_epoch)) {
      total += s.count.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double RollingHistogram::WindowPercentile(double p) const {
  const int64_t now_epoch = internal::RollingNowNs() / kRollingSlotNs;
  uint64_t buckets[Histogram::kNumBuckets] = {};
  uint64_t n = 0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (const Slot& s : slots_) {
    if (!InWindow(s.epoch.load(std::memory_order_acquire), now_epoch)) {
      continue;
    }
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    n += s.count.load(std::memory_order_relaxed);
    mn = std::min(mn, s.min.load(std::memory_order_relaxed));
    mx = std::max(mx, s.max.load(std::memory_order_relaxed));
  }
  if (n == 0) return 0.0;
  return PercentileFromBuckets(buckets, n, mn, mx, p);
}

}  // namespace tsfm::obs
