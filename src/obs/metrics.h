#ifndef TSFM_OBS_METRICS_H_
#define TSFM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tsfm::obs {

/// Monotonic counter. `Add` is a single relaxed atomic fetch-add, safe to
/// call from any thread (including inside ParallelFor chunks); because each
/// increment is an atomic RMW, the total over a parallel region is exact and
/// independent of the thread count.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (doubles, e.g. a loss or a rate).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Lock-free histogram over positive doubles with base-2 exponential
/// buckets: bucket i holds observations whose binary exponent is
/// kMinExp + i, i.e. values in [2^(kMinExp+i), 2^(kMinExp+i+1)). The range
/// [2^-32, 2^32) covers nanoseconds-as-seconds through years; out-of-range
/// and non-positive observations clamp to the edge buckets. `Observe` is a
/// handful of relaxed atomics — cheap enough for per-batch timings, not
/// meant for per-element use.
class Histogram {
 public:
  static constexpr int kMinExp = -32;
  static constexpr int kNumBuckets = 64;

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;

  /// Estimated value at quantile `p` in [0, 1]: finds the bucket where the
  /// cumulative count crosses p * count and interpolates linearly inside it.
  /// Exact min/max are returned for p == 0 / p == 1; mid-quantiles are
  /// accurate to within one bucket (a factor of 2 in value).
  double Percentile(double p) const;

  /// Lower bound of bucket `i` (exposed for tests of the percentile math).
  static double BucketLowerBound(int i);

  /// Bucket index for value `v`, clamped to the table edges (shared with the
  /// rolling-window histograms so both sides bucket identically).
  static int BucketIndex(double v);

  /// Observation count in bucket `i` (Prometheus exposition reads these).
  uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Histogram() = default;
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid only when count_ > 0
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_extrema_{false};
  mutable std::mutex extrema_mu_;  // min/max update path only
};

class RollingCounter;
class RollingHistogram;

/// One flattened metric value in a snapshot. Histograms expand to several
/// entries (count / sum / p50 / p99 / max) so the snapshot stays a flat map.
/// Because the snapshot is a std::map, every rendering derived from it
/// (RenderText, RenderPrometheus) is sorted by name — stable for diffs and
/// CI greps.
using Snapshot = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Metric names and labels. A metric name may carry a Prometheus-style label
// block as a suffix: `serve.request.latency{model="default",op="classify"}`.
// The registry treats the whole string as the key (two label sets are two
// metrics); RenderPrometheus splits the block back out so scrapers see real
// labels, and RenderText keeps the full string.

/// Appends `{k="v",...}` to `base`. Label values are escaped for the
/// Prometheus text format (backslash, quote, newline).
std::string LabeledName(
    const std::string& base,
    std::initializer_list<std::pair<const char*, std::string>> labels);

/// Inserts `suffix` before the label block (if any): ("a.b{x=\"1\"}", ".p99")
/// -> "a.b.p99{x=\"1\"}". Snapshot keys derived from labeled metrics use
/// this so the suffix stays part of the family name, not the labels.
std::string SuffixedMetricName(const std::string& name,
                               const std::string& suffix);

/// Process-wide metric registry. Metric objects are created on first lookup
/// and live for the process lifetime, so callers cache the returned pointer
/// (typically in a function-local static) and pay only the atomic op per
/// update — no map lookup, no lock — on the hot path.
///
/// Subsystems that keep their own internal counters (the BufferPool predates
/// this registry) register a *provider*: a callback that contributes named
/// values at snapshot time. Providers with peak-style values may also
/// register a reset-peak hook so scoped measurements (resources::MeasurePeak)
/// can restart the high-water mark through the registry.
class Registry {
 public:
  static Registry& Instance();

  /// Returns the counter registered under `name`, creating it on first use.
  /// Fatal if `name` is already registered as a different metric type.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Sliding-window variants (obs/rolling.h). A RollingCounter snapshots the
  /// same `name` key as a plain Counter plus `name.window.{count,rate}`; a
  /// RollingHistogram emits a plain Histogram's keys plus
  /// `name.window.{count,p50,p95,p99}` — so migrating a metric to its
  /// rolling variant never breaks an existing consumer of the old keys.
  RollingCounter* GetRollingCounter(const std::string& name);
  RollingHistogram* GetRollingHistogram(const std::string& name);

  /// Registers `fn` to contribute values to every snapshot. `reset_peak`
  /// (optional) is invoked by ResetPeaks. Re-registering the same provider
  /// name replaces the callbacks (idempotent registration).
  void RegisterProvider(const std::string& name,
                        std::function<void(Snapshot*)> fn,
                        std::function<void()> reset_peak = nullptr);

  /// Flat name -> value view of every registered metric and provider.
  Snapshot TakeSnapshot() const;

  /// Invokes every provider's reset-peak hook (e.g. the BufferPool's
  /// peak_live_bytes restart). Counters and histograms are unaffected.
  void ResetPeaks() const;

  /// Human-readable dump of TakeSnapshot(), one "name value" line per
  /// metric, sorted by name. Used by the CLI's --metrics flag and the
  /// TSFM_METRICS exit dump.
  std::string RenderText() const;

  /// Prometheus text exposition (version 0.0.4) of the whole registry:
  /// families are prefixed `tsfm_`, dots become underscores, label blocks in
  /// metric names become real labels, each family gets one `# TYPE` line,
  /// histograms emit cumulative `_bucket{le=...}` / `_sum` / `_count`
  /// series, rolling windows surface as `_window_*` gauges, and provider
  /// values render as gauges. Output is sorted by family then series. This
  /// is what the kMetricsRequest serve verb returns to scrapers.
  std::string RenderPrometheus() const;

 private:
  Registry() = default;
  ~Registry();  // defined out of line: rolling types are incomplete here

  struct Provider {
    std::function<void(Snapshot*)> fn;
    std::function<void()> reset_peak;
  };

  /// Fatal unless `name` is absent from every metric map except `self`.
  void CheckTypeUniqueLocked(const std::string& name, const void* self) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<RollingCounter>> rolling_counters_;
  std::map<std::string, std::unique_ptr<RollingHistogram>>
      rolling_histograms_;
  std::map<std::string, Provider> providers_;
};

/// If the TSFM_METRICS environment variable is set, installs an atexit hook
/// that dumps RenderText() to the named destination ("stderr", "stdout", or
/// a file path; "1" means stderr). Idempotent; called from the CLI and from
/// Registry::Instance() so any instrumented binary honours the variable.
void InstallExitDumpFromEnv();

}  // namespace tsfm::obs

#endif  // TSFM_OBS_METRICS_H_
