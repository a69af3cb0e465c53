#ifndef TSFM_OBS_ROLLING_H_
#define TSFM_OBS_ROLLING_H_

#include <atomic>
#include <cstdint>
#include <limits>

#include "obs/metrics.h"

namespace tsfm::obs {

// ---------------------------------------------------------------------------
// Sliding-window instruments for long-lived servers. A cumulative histogram
// can never answer "what is p99 *right now*" on a process that has been up
// for a week, so these keep a ring of kRollingSlots epoch buckets (5 s each,
// 60 s window total) next to the since-start totals. Writes rotate the slot
// for the current epoch in place (a CAS on the slot's epoch tag; the winner
// clears it); reads merge every slot still inside the window. Everything is
// relaxed/acq-rel atomics — no locks — so Observe stays a handful of atomic
// ops and is safe from any number of threads. A slot racing its own rotation
// can shed a few observations at the 5 s boundary; window stats are
// estimates, the cumulative totals are exact.

/// Number of epoch buckets in the window ring.
inline constexpr int kRollingSlots = 12;
/// Width of one epoch bucket in nanoseconds (5 s; 12 * 5 s = 60 s window).
inline constexpr int64_t kRollingSlotNs = 5'000'000'000;
/// Total window covered by the ring, in seconds.
inline constexpr double kRollingWindowSeconds =
    static_cast<double>(kRollingSlots) * static_cast<double>(kRollingSlotNs) /
    1e9;

namespace internal {
/// Freezes the rolling clock for tests (nanoseconds since an arbitrary
/// origin); pass a negative value to restore the real steady clock. Tests
/// that freeze the clock see exact window counts because no rotation can
/// race their writes.
void SetRollingClockForTest(int64_t now_ns);
/// Current rolling-clock time in nanoseconds.
int64_t RollingNowNs();
}  // namespace internal

/// Monotonic counter with a 60 s sliding-window view. `Add` is 3-4 relaxed
/// atomics; `value()` is the exact cumulative total, `WindowCount()` merges
/// the ring on read.
class RollingCounter {
 public:
  void Add(uint64_t n = 1);
  /// Cumulative total since construction (exact).
  uint64_t value() const { return total_.load(std::memory_order_relaxed); }
  /// Events observed inside the last kRollingWindowSeconds.
  uint64_t WindowCount() const;
  /// WindowCount() / window span — events per second over the window.
  double WindowRatePerSec() const;

 private:
  friend class Registry;
  RollingCounter() = default;

  struct Slot {
    std::atomic<int64_t> epoch{-1};
    std::atomic<uint64_t> count{0};
  };
  Slot slots_[kRollingSlots];
  std::atomic<uint64_t> total_{0};
};

/// Histogram with the same base-2 bucket layout as obs::Histogram plus a
/// 60 s sliding window. The cumulative side (count/sum/min/max/Percentile)
/// matches Histogram's snapshot keys exactly, so swapping a Histogram for a
/// RollingHistogram under the same registry name is invisible to existing
/// consumers; the window side adds WindowPercentile & friends on top.
class RollingHistogram {
 public:
  void Observe(double v);

  // Cumulative (since construction; exact).
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;
  /// Cumulative quantile, interpolated inside the bucket and clamped to the
  /// observed min/max like Histogram::Percentile.
  double Percentile(double p) const;
  /// Cumulative count in base-2 bucket `i` (Prometheus exposition reads the
  /// since-start buckets; scrapers compute window rates themselves).
  uint64_t CumulativeBucketCount(int i) const;

  // Sliding window (merge-on-read over the ring).
  uint64_t WindowCount() const;
  /// Quantile over only the last kRollingWindowSeconds of observations,
  /// clamped to the window's own min/max. Returns 0 when the window is
  /// empty.
  double WindowPercentile(double p) const;

 private:
  friend class Registry;
  RollingHistogram() = default;

  // Extrema are tracked with CAS min/max loops against ±inf sentinels, so a
  // slot (or the cumulative side) is "empty" exactly when min > max — no
  // separate has-data flag, no mutex, no write-write race on first use.
  struct Slot {
    std::atomic<int64_t> epoch{-1};
    std::atomic<uint64_t> count{0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::atomic<uint64_t> buckets[Histogram::kNumBuckets] = {};
  };
  Slot slots_[kRollingSlots];

  std::atomic<uint64_t> buckets_[Histogram::kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace tsfm::obs

#endif  // TSFM_OBS_ROLLING_H_
