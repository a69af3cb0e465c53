#ifndef TSFM_SERVE_SLO_H_
#define TSFM_SERVE_SLO_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "obs/rolling.h"

namespace tsfm::serve {

// ---------------------------------------------------------------------------
// Serving SLO evaluation and the per-request access log. Both consume the
// rolling-window instruments the server keeps (obs/rolling.h): the SLO
// tracker compares the last-60s latency p99 and error/shed rate against
// operator thresholds, and the access log writes one JSON line per request
// with the ids and micro-timings the batcher measured — the two signals an
// operator needs before trusting a hot-swap (ROADMAP item 5).

/// Thresholds from `tsfm serve --slo-p99-ms --slo-error-rate`. A zero
/// threshold disables that check; with both zero the tracker is inert.
struct SloOptions {
  /// Breach when the rolling-window p99 request latency exceeds this.
  double p99_ms = 0.0;
  /// Breach when (errors + shed) / requests over the window exceeds this
  /// fraction.
  double error_rate = 0.0;

  bool enabled() const { return p99_ms > 0.0 || error_rate > 0.0; }
};

/// Evaluates the rolling serve metrics against SloOptions. Thread-safe;
/// Evaluate() self-rate-limits to roughly one evaluation per second so it
/// can sit on the per-request completion path. State transitions publish:
///   serve.slo.ok        gauge, 1 healthy / 0 in breach
///   serve.slo.breaches  counter, incremented on each ok -> breach edge
/// and emit one structured JSON event line on stderr per transition
/// ({"event":"slo_breach",...} / {"event":"slo_recovered",...}).
class SloTracker {
 public:
  SloTracker(SloOptions options, obs::RollingHistogram* latency_seconds,
             obs::RollingCounter* requests, obs::RollingCounter* errors,
             obs::RollingCounter* shed);

  /// Re-evaluates the window (rate-limited unless `force`). No-op when no
  /// threshold is configured.
  void Evaluate(bool force = false);

 private:
  const SloOptions options_;
  obs::RollingHistogram* const latency_seconds_;
  obs::RollingCounter* const requests_;
  obs::RollingCounter* const errors_;
  obs::RollingCounter* const shed_;
  obs::Counter* const breaches_;
  obs::Gauge* const ok_gauge_;

  std::atomic<int64_t> last_eval_ns_{-1};
  std::atomic<bool> breach_{false};
  std::mutex transition_mu_;  // serializes the stderr transition events
};

/// `--access-log[=path]` configuration. An empty path disables the log;
/// "stderr" / "stdout" write to the process streams, anything else is a
/// file (truncated at open). `sample` keeps every Nth request (1 = all).
struct AccessLogOptions {
  std::string path;
  int64_t sample = 1;
};

/// Sampled JSON-lines access log: one object per completed request with
/// request id, op, trace id, batch id, queue/execute/total micros, and
/// status — everything tools/tsfm_loadgen needs to cross-check its own
/// measurements. Record() is mutex-serialized (one line, one write) and
/// flushes per line so `tail -f` and the CI checks see complete records.
class AccessLog {
 public:
  struct Entry {
    uint64_t request_id = 0;
    uint64_t trace_id = 0;
    uint64_t batch_id = 0;
    const char* op = "";      // "classify" | "embed"
    int64_t samples = 0;      // batch dimension of the request tensor
    int64_t queue_us = 0;
    int64_t execute_us = 0;
    int64_t total_us = 0;
    const char* status = "";  // "ok" | "error" | "busy" | "bad_request"
  };

  /// nullptr (inside an OK result) when options.path is empty.
  static Result<std::unique_ptr<AccessLog>> Open(
      const AccessLogOptions& options);
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  void Record(const Entry& entry);

 private:
  AccessLog(std::FILE* out, bool owned, int64_t sample)
      : out_(out), owned_(owned), sample_(sample < 1 ? 1 : sample) {}

  std::FILE* const out_;
  const bool owned_;
  const int64_t sample_;
  std::atomic<uint64_t> seen_{0};
  std::mutex mu_;
};

}  // namespace tsfm::serve

#endif  // TSFM_SERVE_SLO_H_
