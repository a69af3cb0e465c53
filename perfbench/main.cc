// perfbench: end-to-end benchmark of the adapter pipeline with per-layer
// attribution. One process runs one workload through the library's public
// functions (data::LoadCsv, TsfmClassifier::Fit, InferenceSession,
// Registry::LoadAndInstall, serve::Server/Client), checks that the outputs
// are correct, and prints its metrics as one JSON object on the last line of
// standard output. README.md describes the workloads, metrics and checks;
// run.py builds this program and sets its environment.
//
//   perfbench --workload fit_frozen --seed 1 --seconds 15 --trace 0
//             --work-dir .bench_build/perfbench_work [--selftest]
//   perfbench --prepare --work-dir .bench_build/perfbench_work

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "autograd/variable.h"
#include "core/adapter.h"
#include "core/pca_adapter.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/uea_like.h"
#include "finetune/classifier.h"
#include "models/pretrained.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "pipeline/registry.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "simd/dispatch.h"
#include "tensor/ops.h"

namespace tsfm::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

// User + system CPU seconds of the whole process (all threads). Time the
// hypervisor gives to other guests (steal) is not in it.
double ProcessCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// Seconds the hypervisor ran other guests while this machine's CPUs wanted
// to run (the "steal" column of /proc/stat, summed over CPUs); 0 where the
// kernel does not report it.
double StealSeconds() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  double fields[8] = {0};
  is >> cpu;
  for (double& f : fields) is >> f;
  return is ? fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(*r);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Spans. The benchmark records its own spans around each call into a layer,
// keeps them in memory and writes them out at the end (chrome://tracing JSON
// plus a per-layer table). Recording is on only in traced runs.

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int tid = 0;
    int parent = -1;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int Begin(const std::string& name) {
    if (!enabled()) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.start_us = NowUs();
    s.tid = ThreadIndex();
    s.parent = Stack().empty() ? -1 : Stack().back();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    Stack().push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = NowUs();
    auto& stack = Stack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
  }

  // Chrome trace-event JSON ("X" complete events, parent index in args).
  Status WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path, std::ios::trunc);
    if (!os) return Status::IoError("cannot write " + path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                    "\"args\":{\"id\":%zu,\"parent\":%d}}",
                    i == 0 ? "" : ",\n", s.name.c_str(), s.start_us,
                    s.end_us - s.start_us, s.tid, i, s.parent);
      os << buf;
    }
    os << "]}\n";
    return os ? Status::OK() : Status::IoError("write failed: " + path);
  }

  // Per-layer table: count, total, self (total minus time covered by child
  // spans) and mean per span name, sorted by self time.
  std::string LayerTable() const {
    std::lock_guard<std::mutex> lock(mu_);
    struct Row {
      int64_t count = 0;
      double total_us = 0;
      double self_us = 0;
    };
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::map<std::string, Row> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const double dur = spans_[i].end_us - spans_[i].start_us;
      Row& r = rows[spans_[i].name];
      r.count += 1;
      r.total_us += dur;
      r.self_us += dur - child_us[i];
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.self_us > b.second.self_us;
    });
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "# %-32s %8s %12s %12s %12s\n", "span",
                  "count", "total_ms", "self_ms", "mean_ms");
    out += buf;
    for (const auto& [name, r] : sorted) {
      std::snprintf(buf, sizeof(buf), "# %-32s %8lld %12.3f %12.3f %12.4f\n",
                    name.c_str(), static_cast<long long>(r.count),
                    r.total_us / 1e3, r.self_us / 1e3,
                    r.total_us / 1e3 / static_cast<double>(r.count));
      out += buf;
    }
    return out;
  }

 private:
  static double NowUs() {
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     kProcessStart)
        .count();
  }
  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }
  static std::vector<int>& Stack() {
    thread_local std::vector<int> stack;
    return stack;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog& Spans() {
  static SpanLog* log = new SpanLog();
  return *log;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name) : id_(Spans().Begin(name)) {}
  ~ScopedSpan() { Spans().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// Times `fn` under a span named `name`; returns seconds.
template <typename Fn>
double Timed(const std::string& name, Fn&& fn) {
  ScopedSpan span(name);
  const auto t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

// ---------------------------------------------------------------------------
// Counter deltas, read through the obs registry snapshot by name (a metric
// the program stops exporting reads as 0).

double Get(const obs::Snapshot& s, const std::string& key) {
  auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second;
}

obs::Snapshot TakeSnapshot() {
  return obs::Registry::Instance().TakeSnapshot();
}

struct CounterDelta {
  double matmul_flops = 0;
  double elementwise_bytes = 0;
  double parallel_for_calls = 0;
  double parallel_for_inline = 0;
  double tasks_submitted = 0;
  double pool_acquires = 0;
  double pool_hits = 0;
  double heap_allocs = 0;
  double eigen_calls = 0;
  double peak_live_bytes = 0;  // high-water since the last ResetPeaks
};

CounterDelta Diff(const obs::Snapshot& a, const obs::Snapshot& b) {
  auto d = [&](const char* k) { return Get(b, k) - Get(a, k); };
  CounterDelta c;
  c.matmul_flops = d("tensor.matmul_flops");
  c.elementwise_bytes = d("tensor.elementwise_bytes");
  c.parallel_for_calls = d("runtime.parallel_for.calls");
  c.parallel_for_inline = d("runtime.parallel_for.inline");
  c.tasks_submitted = d("runtime.tasks_submitted");
  c.pool_acquires = d("pool.acquires");
  c.pool_hits = d("pool.pool_hits");
  c.heap_allocs = d("pool.heap_allocs");
  c.eigen_calls = d("linalg.eigen_calls");
  c.peak_live_bytes = Get(b, "pool.peak_live_bytes");
  return c;
}

// ---------------------------------------------------------------------------
// Metric tables. Every workload reports every metric; the README says which
// workload each one is meant to move.

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndDefs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},         {"fit_cpu_s", "s"},
      {"predict_cpu_us", "us"}, {"serve_cpu_ms", "ms"},
      {"test_accuracy", "frac"}, {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerDefs() {
  static const std::vector<MetricDef> defs = {
      {"data.csv_load_s", "s"},
      {"io.checkpoint_load_s", "s"},
      {"io.bundle_load_s", "s"},
      {"pipeline.normalize_s", "s"},
      {"pipeline.adapt_s", "s"},
      {"pipeline.embed_s", "s"},
      {"pipeline.head_s", "s"},
      {"pipeline.predict_batch_ms", "ms"},
      {"finetune.joint_epoch_ms", "ms"},
      {"finetune.head_epoch_ms", "ms"},
      {"finetune.unattributed_s", "s"},
      {"core.adapter_fit_ms", "ms"},
      {"core.adapter_transform_ms", "ms"},
      {"linalg.eigen_calls", "count"},
      {"models.embed_us_per_sample_b32", "us"},
      {"models.embed_us_per_sample_b1", "us"},
      {"models.embed_us_per_sample_b4", "us"},
      {"tensor.matmul_gflop", "GFLOP"},
      {"tensor.matmul_gflops", "GFLOP/s"},
      {"tensor.elementwise_gb", "GB"},
      {"runtime.parallel_for_calls", "count"},
      {"runtime.tasks_submitted", "count"},
      {"runtime.parallel_share", "frac"},
      {"memory.pool_hit_ratio", "frac"},
      {"memory.heap_allocs", "count"},
      {"memory.peak_live_mb", "MB"},
      {"serve.batch_size_mean", "requests"},
      {"serve.batch_execute_ms", "ms"},
      {"serve.server_p50_ms", "ms"},
      {"serve.wire_ms", "ms"},
      {"serve.generator_late_ms", "ms"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"finetune.fit_wall_s", "s"},
      {"pipeline.predict_sps", "samples/s"},
      {"serve.closed_rps", "1/s"},
      {"serve.open_p50_ms", "ms"},
      {"host.steal_share", "frac"},
  };
  return defs;
}

// Samples per metric name; each reported value is the median of its samples.
using Samples = std::map<std::string, std::vector<double>>;

// ---------------------------------------------------------------------------
// Correctness checks. Each check is a predicate over its inputs and a
// reference; `wrong` swaps in a deliberately wrong reference (shifted
// labels, a perturbed variance share, ...). A normal run requires every
// check to pass; --selftest additionally requires every check to fail when
// given the wrong reference, which shows the check can fail at all.

class Verifier {
 public:
  explicit Verifier(bool selftest) : selftest_(selftest) {}

  void Check(const std::string& name, const std::function<bool(bool)>& pred,
             const std::string& detail = "") {
    Entry& e = entries_[name];
    e.runs += 1;
    if (!pred(false)) {
      e.failures += 1;
      if (e.first_failure.empty()) e.first_failure = detail;
    }
    if (selftest_ && pred(true)) e.wrong_ref_passed += 1;
  }

  bool AllPassed() const {
    for (const auto& [name, e] : entries_) {
      if (e.failures > 0) return false;
    }
    return true;
  }

  bool SelftestPassed() const {
    for (const auto& [name, e] : entries_) {
      if (e.wrong_ref_passed > 0) return false;
    }
    return !entries_.empty();
  }

  void Print() const {
    for (const auto& [name, e] : entries_) {
      std::printf("# check %-28s %s (%lld/%lld passed)%s%s\n", name.c_str(),
                  e.failures == 0 ? "ok  " : "FAIL",
                  static_cast<long long>(e.runs - e.failures),
                  static_cast<long long>(e.runs),
                  e.first_failure.empty() ? "" : " first failure: ",
                  e.first_failure.c_str());
      if (selftest_) {
        std::printf("# selftest %-25s wrong reference %s\n", name.c_str(),
                    e.wrong_ref_passed == 0 ? "rejected (ok)"
                                            : "ACCEPTED (check is blind)");
      }
    }
  }

 private:
  struct Entry {
    int64_t runs = 0;
    int64_t failures = 0;
    int64_t wrong_ref_passed = 0;
    std::string first_failure;
  };
  bool selftest_;
  std::map<std::string, Entry> entries_;
};

// Labels shifted by one class: the "wrong reference" for label checks.
std::vector<int64_t> Shifted(const std::vector<int64_t>& labels,
                             int64_t classes) {
  std::vector<int64_t> out(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    out[i] = (labels[i] + 1) % classes;
  }
  return out;
}

double Recount(const std::vector<int64_t>& pred,
               const std::vector<int64_t>& truth) {
  int64_t correct = 0;
  for (size_t i = 0; i < pred.size(); ++i) correct += pred[i] == truth[i];
  return pred.empty() ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(pred.size());
}

// Column moments of a (rows, cols) float view, accumulated in double.
struct Moments {
  std::vector<double> mean;
  std::vector<double> cov;  // cols x cols, population (1/rows)
  int64_t cols = 0;
};

Moments ComputeMoments(const float* data, int64_t rows, int64_t stride,
                       int64_t cols) {
  Moments m;
  m.cols = cols;
  m.mean.assign(static_cast<size_t>(cols), 0.0);
  m.cov.assign(static_cast<size_t>(cols * cols), 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) m.mean[c] += data[r * stride + c];
  }
  for (double& v : m.mean) v /= static_cast<double>(rows);
  std::vector<double> centered(static_cast<size_t>(cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      centered[c] = data[r * stride + c] - m.mean[c];
    }
    for (int64_t i = 0; i < cols; ++i) {
      for (int64_t j = i; j < cols; ++j) {
        m.cov[i * cols + j] += centered[i] * centered[j];
      }
    }
  }
  for (int64_t i = 0; i < cols; ++i) {
    for (int64_t j = i; j < cols; ++j) {
      m.cov[i * cols + j] /= static_cast<double>(rows);
      m.cov[j * cols + i] = m.cov[i * cols + j];
    }
  }
  return m;
}

double MaxAbsCorrelation(const Moments& m) {
  double worst = 0.0;
  for (int64_t i = 0; i < m.cols; ++i) {
    for (int64_t j = i + 1; j < m.cols; ++j) {
      const double denom =
          std::sqrt(m.cov[i * m.cols + i] * m.cov[j * m.cols + j]);
      if (denom > 0) {
        worst = std::max(worst, std::fabs(m.cov[i * m.cols + j]) / denom);
      }
    }
  }
  return worst;
}

double Trace(const Moments& m) {
  double t = 0.0;
  for (int64_t i = 0; i < m.cols; ++i) t += m.cov[i * m.cols + i];
  return t;
}

// Sum of the column variances (population) of a dense (rows, cols) view.
double TotalVariance(const float* data, int64_t rows, int64_t cols) {
  std::vector<double> sum(static_cast<size_t>(cols), 0.0);
  std::vector<double> sq(static_cast<size_t>(cols), 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      const double v = data[r * cols + c];
      sum[c] += v;
      sq[c] += v * v;
    }
  }
  double total = 0.0;
  const double n = static_cast<double>(rows);
  for (int64_t c = 0; c < cols; ++c) {
    total += sq[c] / n - (sum[c] / n) * (sum[c] / n);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Workloads. All three run the same phases — set-up rounds, fit repetitions,
// then serving the set-up bundle — with different data, model, adapter and
// time split; `primary` names the phase the workload is about, which sets
// the source of test_accuracy, the denominator of per-op counters and the
// basis of the tracing-overhead ratio.

enum class Primary { kFit, kServe };

struct WorkloadConfig {
  std::string name;
  std::string dataset;
  data::GeneratorCaps caps;
  models::ModelKind model = models::ModelKind::kMoment;
  core::AdapterKind adapter = core::AdapterKind::kPca;
  int64_t dprime = 5;
  // Served and fitted in int8 (run.py sets TSFM_QUANT=int8 TSFM_SIMD=1).
  bool int8 = false;
  // Joint epochs of the set-up warm-up fit (0 = the library default).
  int64_t warmup_joint_epochs = 0;
  Primary primary = Primary::kFit;
  double fit_share = 0.75;     // of --seconds; the rest serves
  double closed_share = 0.4;   // of the serving time; the rest is open loop
  double open_rate = 100.0;    // open-loop offered rate, requests/s
  double chance_margin = 0.1;  // accuracy must beat 1/classes by this much
  int predict_passes = 1;      // test-split PredictBatch passes per fit
};

std::optional<WorkloadConfig> FindWorkload(const std::string& name) {
  WorkloadConfig w;
  w.name = name;
  if (name == "fit_frozen") {
    // Heartbeat shape, uncapped: 204/205 samples, 405 steps, 61 channels.
    w.dataset = "Heartbeat";
    w.caps = data::GeneratorCaps{};
    w.open_rate = 50.0;
    return w;
  }
  if (name == "fit_lcomb") {
    // NATOPS shape at the library's default caps: 120/80 samples, 51
    // steps, 24 channels.
    w.dataset = "NATOPS";
    w.caps = data::DefaultCaps();
    w.adapter = core::AdapterKind::kLcomb;
    w.warmup_joint_epochs = 2;
    w.open_rate = 200.0;
    w.predict_passes = 10;
    return w;
  }
  if (name == "serve_int8") {
    w.dataset = "NATOPS";
    w.caps = data::GeneratorCaps{};
    w.model = models::ModelKind::kVit;
    w.dprime = 4;
    w.int8 = true;
    w.primary = Primary::kServe;
    w.fit_share = 0.25;
    w.open_rate = 400.0;
    w.predict_passes = 4;
    return w;
  }
  return std::nullopt;
}

struct Paths {
  std::string work_dir;
  std::string ckpt_dir() const { return work_dir + "/ckpt"; }
  std::string moment_ckpt() const { return ckpt_dir() + "/moment.ckpt"; }
  std::string vit_ckpt() const { return ckpt_dir() + "/vit.ckpt"; }
  std::string vit_q8_ckpt() const { return ckpt_dir() + "/vit.q8.ckpt"; }
  std::string out_dir() const { return work_dir + "/out"; }
};

models::FoundationModelConfig ModelConfig(models::ModelKind kind) {
  return kind == models::ModelKind::kVit ? models::VitSmallConfig()
                                         : models::MomentSmallConfig();
}

// Phase bookkeeping printed in the footer.
struct PhaseCount {
  std::string name;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Fixed server and load shape shared by every workload.
constexpr int kMaxConnections = 4;
constexpr int64_t kWarmupRequestsPerConn = 16;
constexpr int64_t kSingleSampleChecks = 8;
constexpr int kSetupRounds = 3;
constexpr int kMinFits = 3;
constexpr size_t kRateChunk = 64;

int Connections() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(n, 1, kMaxConnections));
}

// ---------------------------------------------------------------------------
// Serving load. Requests are single samples of the test split.

struct Request {
  int64_t sample = 0;
  int64_t label = -1;
  bool ok = false;
  double due_s = 0;    // open loop: scheduled send time (phase clock)
  double send_s = 0;
  double done_s = 0;
  uint64_t trace_id = 0;
};

Request SendOne(serve::Client* client, const Tensor& x, int64_t sample,
                Clock::time_point phase_start) {
  Request r;
  r.sample = sample;
  r.send_s = SecondsSince(phase_start);
  auto labels = client->Classify(x);
  r.done_s = SecondsSince(phase_start);
  r.trace_id = client->last_trace_id();
  if (labels.ok() && labels->size() == 1) {
    r.ok = true;
    r.label = (*labels)[0];
  }
  return r;
}

// Closed loop: each connection sends its next request when the previous one
// returns, for `seconds`.
std::vector<Request> ClosedLoop(int port, const std::vector<Tensor>& samples,
                                int conns, double seconds) {
  std::vector<std::vector<Request>> per_conn(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (int k = 0; k < conns; ++k) {
    threads.emplace_back([&, k] {
      auto client = Must(serve::Client::Connect("127.0.0.1", port),
                         "closed-loop connect");
      const int64_t n = static_cast<int64_t>(samples.size());
      for (int64_t j = 0; SecondsSince(start) < seconds; ++j) {
        const int64_t idx = (k + j * conns) % n;
        ScopedSpan span("serve.request");
        per_conn[static_cast<size_t>(k)].push_back(
            SendOne(&client, samples[static_cast<size_t>(idx)], idx, start));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Request> all;
  for (auto& v : per_conn) all.insert(all.end(), v.begin(), v.end());
  return all;
}

// Open loop: request i is due at start + i / rate whatever happened before
// it; `conns` senders take the next due request in turn. Latency counts from
// the due time, so a stall that delays later sends shows up as their
// latency, and the lateness of each send is recorded.
std::vector<Request> OpenLoop(int port, const std::vector<Tensor>& samples,
                              int conns, double rate, double seconds,
                              int64_t first_sample) {
  const int64_t total = std::max<int64_t>(1, std::llround(rate * seconds));
  std::vector<Request> out(static_cast<size_t>(total));
  std::atomic<int64_t> next{0};
  std::vector<std::thread> threads;
  std::vector<serve::Client> clients;
  for (int k = 0; k < conns; ++k) {
    clients.push_back(
        Must(serve::Client::Connect("127.0.0.1", port), "open-loop connect"));
  }
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (int k = 0; k < conns; ++k) {
    threads.emplace_back([&, k] {
      const int64_t n = static_cast<int64_t>(samples.size());
      for (int64_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        const double due = static_cast<double>(i) / rate;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due)));
        const int64_t idx = (first_sample + i) % n;
        ScopedSpan span("serve.request");
        Request r = SendOne(&clients[static_cast<size_t>(k)],
                            samples[static_cast<size_t>(idx)], idx, start);
        r.due_s = due;
        out[static_cast<size_t>(i)] = r;
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

// Completion rates over consecutive runs of kRateChunk completions (the
// last partial run dropped); serve.closed_rps is their median, which a short
// stall moves less than the phase mean.
std::vector<double> ChunkRates(const std::vector<Request>& reqs) {
  std::vector<double> done;
  for (const Request& r : reqs) {
    if (r.ok) done.push_back(r.done_s);
  }
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  for (size_t i = kRateChunk; i < done.size(); i += kRateChunk) {
    const double span = done[i] - done[i - kRateChunk];
    if (span > 0) rates.push_back(static_cast<double>(kRateChunk) / span);
  }
  if (rates.empty() && done.size() >= 2 && done.back() > done.front()) {
    rates.push_back(static_cast<double>(done.size() - 1) /
                    (done.back() - done.front()));
  }
  return rates;
}

Result<std::unique_ptr<serve::Server>> StartServer(
    pipeline::Registry* registry, const std::string& access_log) {
  serve::ServerOptions options;
  options.port = 0;
  options.session_name = "bench";
  options.access_log.path = access_log;
  return serve::Server::Start(registry, std::move(options));
}

// Server-side total latency per trace id, from the access log.
std::map<uint64_t, double> ReadAccessLog(const std::string& path) {
  std::map<uint64_t, double> out;
  std::ifstream is(path);
  std::string line;
  auto field = [&line](const std::string& key) -> const char* {
    const std::string pat = "\"" + key + "\":";
    const size_t pos = line.find(pat);
    return pos == std::string::npos ? nullptr
                                    : line.c_str() + pos + pat.size();
  };
  while (std::getline(is, line)) {
    const char* id = field("trace_id");
    const char* total = field("total_us");
    if (id != nullptr && total != nullptr) {
      out[std::strtoull(id, nullptr, 10)] = std::strtod(total, nullptr) / 1e3;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The run.

struct Run {
  WorkloadConfig cfg;
  Paths paths;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  Verifier verifier;
  std::vector<PhaseCount> phases;
  Samples e2e;
  Samples layer;
  std::vector<double> setup_wall_s;
  // Wall-clock figures printed in the footer of every run (unbounded).
  std::map<std::string, double> wall;
  std::vector<std::string> notes;
  std::string run_dir;

  Run(WorkloadConfig c, Paths p, uint64_t s, double secs, bool tr, bool st)
      : cfg(std::move(c)), paths(std::move(p)), seed(s), seconds(secs),
        trace(tr), verifier(st) {}

  std::string ckpt_for_fit() const {
    if (cfg.model == models::ModelKind::kVit) {
      return cfg.int8 ? paths.vit_q8_ckpt() : paths.vit_ckpt();
    }
    return paths.moment_ckpt();
  }

  finetune::ClassifierConfig ClassifierConfigFor(int64_t joint_epochs) const {
    finetune::ClassifierConfig c;
    c.model_kind = cfg.model;
    c.model_config = ModelConfig(cfg.model);
    c.checkpoint_path = ckpt_for_fit();
    c.adapter = cfg.adapter;
    c.adapter_options.out_channels = cfg.dprime;
    if (joint_epochs > 0) c.finetune.joint_epochs = joint_epochs;
    return c;
  }

  uint64_t DrawSeed(int64_t index) const {
    return seed * 1000003ULL + static_cast<uint64_t>(index);
  }

  data::DatasetPair Draw(int64_t index) const {
    auto spec = Must(data::FindUeaSpec(cfg.dataset), "dataset spec");
    return data::GenerateUeaLike(spec, DrawSeed(index), cfg.caps);
  }
};

struct FitOutcome {
  finetune::FineTuneResult result;
  std::vector<pipeline::EpochProgress> epochs;
  double fit_s = 0;
  double fit_cpu_s = 0;
};

// One timed Fit; epochs are collected through the epoch callback (the only
// timing source for joint training, which has no pipeline stage).
FitOutcome FitOnce(finetune::TsfmClassifier* clf,
                   std::vector<pipeline::EpochProgress>* epochs,
                   const data::DatasetPair& pair) {
  epochs->clear();
  FitOutcome out;
  const double cpu0 = ProcessCpuSeconds();
  out.fit_s = Timed("finetune.fit", [&] {
    Must(clf->Fit(pair.train, &pair.test), "fit");
  });
  out.fit_cpu_s = ProcessCpuSeconds() - cpu0;
  out.result = clf->last_fit_result();
  out.epochs = *epochs;
  return out;
}

// Checks on one fitted classifier against its draw.
void CheckFit(Run* run, const finetune::TsfmClassifier& clf,
              const FitOutcome& fit, const data::DatasetPair& pair,
              const std::vector<int64_t>& batch_labels, int64_t joint_epochs) {
  Verifier& v = run->verifier;
  const int64_t classes = pair.test.num_classes;
  const std::vector<int64_t>& truth = pair.test.y;
  const std::vector<int64_t> wrong_truth = Shifted(truth, classes);
  const double reported = fit.result.test_accuracy;
  v.Check(
      "fit.accuracy_recount",
      [&](bool wrong) {
        return std::fabs(Recount(batch_labels, wrong ? wrong_truth : truth) -
                         reported) < 1e-12;
      },
      "recount " + std::to_string(Recount(batch_labels, truth)) +
          " != reported " + std::to_string(reported));
  const double chance = 1.0 / static_cast<double>(classes);
  v.Check(
      "fit.above_chance",
      [&](bool wrong) {
        return Recount(batch_labels, wrong ? wrong_truth : truth) >=
               chance + run->cfg.chance_margin;
      },
      "accuracy " + std::to_string(Recount(batch_labels, truth)));

  // Batch predictions equal one-sample predictions on a subset: the session
  // promises results independent of batch composition.
  const auto session = clf.session();
  const int64_t n = std::min<int64_t>(kSingleSampleChecks, pair.test.size());
  std::vector<int64_t> single(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    single[static_cast<size_t>(i)] =
        Must(session->Predict(Slice(pair.test.x, 0, i, i + 1)), "predict");
  }
  const std::vector<int64_t> head(batch_labels.begin(),
                                  batch_labels.begin() + n);
  const std::vector<int64_t> wrong_head = Shifted(head, classes);
  v.Check("fit.batch_equals_single",
          [&](bool wrong) { return single == (wrong ? wrong_head : head); });

  if (run->cfg.adapter == core::AdapterKind::kPca) {
    // PCA output on the normalized train split, recomputed in double: its
    // channels are uncorrelated and carry the reported variance share.
    const auto* pca = dynamic_cast<const core::PcaAdapter*>(clf.adapter());
    if (pca == nullptr) Die("PCA workload without a PCA adapter");
    const data::TimeSeriesDataset norm =
        data::NormalizeWith(pair.train, session->stats());
    const Tensor z = Must(pca->Transform(norm.x), "pca transform").Contiguous();
    const int64_t rows = z.dim(0) * z.dim(1);
    const Moments out = ComputeMoments(z.data(), rows, z.dim(2), z.dim(2));
    const Tensor xn = norm.x.Contiguous();
    // Wrong reference: the first D' raw (normalized) channels, which are
    // correlated mixtures of the latent signals.
    const Moments raw = ComputeMoments(xn.data(), rows, xn.dim(2), z.dim(2));
    const double corr = MaxAbsCorrelation(out);
    v.Check(
        "pca.decorrelated",
        [&](bool wrong) {
          return (wrong ? MaxAbsCorrelation(raw) : corr) < 0.02;
        },
        "max |corr| " + std::to_string(corr));
    const double share =
        Trace(out) / TotalVariance(xn.data(), rows, xn.dim(2));
    const double reported_share = pca->explained_variance_ratio();
    v.Check(
        "pca.variance_share",
        [&](bool wrong) {
          return std::fabs(share - (reported_share + (wrong ? 0.05 : 0.0))) <
                 0.01;
        },
        "share " + std::to_string(share) + " vs reported " +
            std::to_string(reported_share));
  }
  if (run->cfg.adapter == core::AdapterKind::kLcomb) {
    std::vector<double> joint_losses;
    for (const auto& e : fit.epochs) {
      if (e.phase == pipeline::Phase::kJoint) joint_losses.push_back(e.loss);
    }
    const int64_t seen = static_cast<int64_t>(joint_losses.size());
    v.Check(
        "lcomb.epochs_complete",
        [&](bool wrong) { return seen == joint_epochs + (wrong ? 1 : 0); },
        std::to_string(seen) + " of " + std::to_string(joint_epochs));
    const double first = joint_losses.empty() ? 0 : joint_losses.front();
    const double last = joint_losses.empty() ? 0 : joint_losses.back();
    v.Check(
        "lcomb.loss_decreases",
        [&](bool wrong) { return wrong ? first < last : last < first; },
        "first " + std::to_string(first) + " last " + std::to_string(last));
  }
}

// Embeds `b` adapted samples with the frozen encoder (no grad); returns
// microseconds per sample, median of `reps` calls.
double EmbedUsPerSample(const pipeline::InferenceSession& session,
                        const Tensor& adapted, int64_t b, int reps) {
  std::vector<double> us;
  const Tensor xb = Slice(adapted, 0, 0, std::min(b, adapted.dim(0)));
  for (int i = 0; i < reps; ++i) {
    ag::NoGradGuard guard;
    Rng rng(0);
    nn::ForwardContext ctx{/*training=*/false, &rng};
    const double s = Timed("models.embed_b" + std::to_string(b), [&] {
      ag::Var emb = session.model().EncodeChannels(ag::Constant(xb), ctx);
      (void)emb;
    });
    us.push_back(s * 1e6 / static_cast<double>(xb.dim(0)));
  }
  return Median(us);
}

// Per-layer calls made in traced fit repetitions, outside the fit timer.
void TraceLayers(Run* run, const finetune::TsfmClassifier& clf,
                 const data::DatasetPair& pair) {
  const auto session = clf.session();
  const data::TimeSeriesDataset norm_train =
      data::NormalizeWith(pair.train, session->stats());
  const data::TimeSeriesDataset norm_test =
      data::NormalizeWith(pair.test, session->stats());
  core::AdapterOptions opts;
  opts.out_channels = run->cfg.dprime;
  auto adapter = core::CreateAdapter(run->cfg.adapter, opts);
  run->layer["core.adapter_fit_ms"].push_back(
      1e3 * Timed("core.adapter_fit", [&] {
        Must(adapter->Fit(norm_train.x, norm_train.y), "adapter fit");
      }));
  run->layer["core.adapter_transform_ms"].push_back(
      1e3 * Timed("core.adapter_transform", [&] {
        (void)Must(adapter->Transform(norm_train.x), "adapter transform");
      }));
  const Tensor test32 = Slice(pair.test.x, 0, 0,
                              std::min<int64_t>(32, pair.test.size()));
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    ms.push_back(1e3 * Timed("pipeline.predict_batch32", [&] {
      (void)Must(session->PredictBatch(test32), "predict batch");
    }));
  }
  run->layer["pipeline.predict_batch_ms"].push_back(Median(ms));
  // Encoder embed at three batch sizes on adapted test samples.
  const Tensor adapted =
      session->adapter() != nullptr
          ? Must(session->adapter()->Transform(
                     Slice(norm_test.x, 0, 0,
                           std::min<int64_t>(32, norm_test.size()))),
                 "adapt")
          : norm_test.x;
  run->layer["models.embed_us_per_sample_b32"].push_back(
      EmbedUsPerSample(*session, adapted, 32, 3));
  run->layer["models.embed_us_per_sample_b4"].push_back(
      EmbedUsPerSample(*session, adapted, 4, 9));
  run->layer["models.embed_us_per_sample_b1"].push_back(
      EmbedUsPerSample(*session, adapted, 1, 15));
}

void RecordCounters(Run* run, const CounterDelta& d, double ops,
                    double busy_s) {
  auto& L = run->layer;
  L["tensor.matmul_gflop"].push_back(d.matmul_flops / 1e9 / ops);
  L["tensor.matmul_gflops"].push_back(
      busy_s > 0 ? d.matmul_flops / 1e9 / busy_s : 0.0);
  L["tensor.elementwise_gb"].push_back(d.elementwise_bytes / 1e9 / ops);
  L["runtime.parallel_for_calls"].push_back(d.parallel_for_calls / ops);
  L["runtime.tasks_submitted"].push_back(d.tasks_submitted / ops);
  L["runtime.parallel_share"].push_back(
      d.parallel_for_calls > 0
          ? (d.parallel_for_calls - d.parallel_for_inline) /
                d.parallel_for_calls
          : 0.0);
  L["memory.pool_hit_ratio"].push_back(
      d.pool_acquires > 0 ? d.pool_hits / d.pool_acquires : 0.0);
  L["memory.heap_allocs"].push_back(d.heap_allocs / ops);
  L["memory.peak_live_mb"].push_back(d.peak_live_bytes / 1e6);
  L["linalg.eigen_calls"].push_back(d.eigen_calls / ops);
}

void RecordFitLayers(Run* run, const FitOutcome& fit) {
  double stage_sum = 0.0;
  for (const auto& st : fit.result.stage_timings) {
    run->layer["pipeline." + st.stage + "_s"].push_back(st.seconds);
    stage_sum += st.seconds;
  }
  std::vector<double> head_ms;
  std::vector<double> joint_ms;
  double joint_sum = 0.0;
  for (const auto& e : fit.epochs) {
    if (e.phase == pipeline::Phase::kJoint) {
      joint_ms.push_back(e.seconds * 1e3);
      joint_sum += e.seconds;
    } else {
      head_ms.push_back(e.seconds * 1e3);
    }
  }
  if (!head_ms.empty()) {
    run->layer["finetune.head_epoch_ms"].push_back(Median(head_ms));
  }
  if (!joint_ms.empty()) {
    run->layer["finetune.joint_epoch_ms"].push_back(Median(joint_ms));
  }
  // Head epochs run inside the head stage; joint epochs run outside every
  // stage, so only they add to the attributed sum.
  run->layer["finetune.unattributed_s"].push_back(fit.fit_s - stage_sum -
                                                  joint_sum);
}

// Serving state built in each set-up round.
struct Serving {
  pipeline::Registry registry;
  std::unique_ptr<serve::Server> server;
  std::shared_ptr<const pipeline::InferenceSession> session;
  data::TimeSeriesDataset test;
  std::vector<Tensor> samples;  // one (1, T, D) tensor per test sample
  std::string prefix;
};

// Sends `per_conn` single-sample requests on each of `conns` connections;
// returns how many failed.
int64_t WarmUpWave(const Serving& serving, int conns, int64_t per_conn) {
  std::vector<std::thread> threads;
  std::atomic<int64_t> failed{0};
  const int64_t n = static_cast<int64_t>(serving.samples.size());
  for (int k = 0; k < conns; ++k) {
    threads.emplace_back([&, k] {
      auto client = Must(
          serve::Client::Connect("127.0.0.1", serving.server->port()),
          "warm-up connect");
      for (int64_t j = 0; j < per_conn; ++j) {
        const size_t idx = static_cast<size_t>((k + j * conns) % n);
        if (!client.Classify(serving.samples[idx]).ok()) ++failed;
      }
    });
  }
  for (auto& t : threads) t.join();
  return failed.load();
}

// Set-up rounds: everything a fresh process does before its first timed
// operation — load the CSV splits, load the checkpoint and fit (the warm-up
// fit), save the bundle, load it into a serving registry, start the server
// and send a warm-up wave. setup_s is the median CPU time of the rounds; the
// last round's server carries on into the serving phase.
std::unique_ptr<Serving> SetUp(Run* run, const std::string& train_csv,
                               const std::string& test_csv) {
  const WorkloadConfig& cfg = run->cfg;
  const int conns = Connections();
  std::vector<pipeline::EpochProgress> epochs;
  std::unique_ptr<Serving> serving;
  PhaseCount phase{"setup", 0, 0};
  for (int round = 0; round < kSetupRounds; ++round) {
    if (serving != nullptr) serving->server->Stop();
    ScopedSpan round_span("setup.round");
    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    serving = std::make_unique<Serving>();
    serving->prefix = run->run_dir + "/bundle";
    data::DatasetPair pair;
    run->layer["data.csv_load_s"].push_back(Timed("data.load_csv", [&] {
      pair.train = Must(data::LoadCsv(train_csv, "train"), "load train");
      pair.test = Must(data::LoadCsv(test_csv, "test"), "load test");
    }));
    const int64_t classes =
        std::max(pair.train.num_classes, pair.test.num_classes);
    pair.train.num_classes = classes;
    pair.test.num_classes = classes;
    auto config = run->ClassifierConfigFor(cfg.warmup_joint_epochs);
    config.finetune.on_epoch = [&epochs](const pipeline::EpochProgress& p) {
      epochs.push_back(p);
    };
    std::optional<finetune::TsfmClassifier> clf;
    Timed("finetune.create", [&] {
      clf.emplace(Must(finetune::TsfmClassifier::Create(config), "create"));
    });
    FitOnce(&*clf, &epochs, pair);
    Must(clf->Save(serving->prefix), "save bundle");
    std::shared_ptr<const models::FoundationModel> model;
    run->layer["io.checkpoint_load_s"].push_back(
        Timed("io.checkpoint_load", [&] {
          model = Must(models::LoadOrPretrain(cfg.model, ModelConfig(cfg.model),
                                              models::PretrainOptions{},
                                              run->ckpt_for_fit()),
                       "load checkpoint");
        }));
    run->layer["io.bundle_load_s"].push_back(Timed("io.bundle_load", [&] {
      serving->session = Must(
          serving->registry.LoadAndInstall("bench", serving->prefix, model,
                                           cfg.adapter, classes,
                                           pipeline::SessionOptions{}),
          "load bundle");
    }));
    serving->server = Must(StartServer(&serving->registry, ""), "server");
    serving->test = std::move(pair.test);
    for (int64_t i = 0; i < serving->test.size(); ++i) {
      serving->samples.push_back(
          Slice(serving->test.x, 0, i, i + 1).Contiguous());
    }
    phase.attempted += 1 + conns * kWarmupRequestsPerConn;
    phase.failed += WarmUpWave(*serving, conns, kWarmupRequestsPerConn);
    run->e2e["setup_s"].push_back(ProcessCpuSeconds() - cpu0);
    run->setup_wall_s.push_back(SecondsSince(t0));
  }
  run->phases.push_back(phase);
  return serving;
}

struct Latencies {
  std::vector<double> from_due_ms;  // what an open-loop user waits
  std::vector<double> late_ms;      // send time minus due time
  std::vector<double> rtt_ms;       // send to reply
};

Latencies LatenciesOf(const std::vector<Request>& reqs) {
  Latencies l;
  for (const Request& r : reqs) {
    if (!r.ok) continue;
    l.from_due_ms.push_back((r.done_s - r.due_s) * 1e3);
    l.late_ms.push_back((r.send_s - r.due_s) * 1e3);
    l.rtt_ms.push_back((r.done_s - r.send_s) * 1e3);
  }
  return l;
}

// Serving phase: a closed loop, then an open loop at the workload's fixed
// rate. In traced runs the open loop is split: an untraced half against the
// plain server, then a traced half against a second server with the access
// log on (server-side latency per request) and the benchmark's spans on.
void ServePhase(Run* run, Serving* serving) {
  const WorkloadConfig& cfg = run->cfg;
  const int conns = Connections();
  const std::vector<int64_t> offline =
      Must(serving->session->PredictBatch(serving->test.x), "offline labels");
  const int64_t classes = serving->test.num_classes;
  const double serve_s = run->seconds * (1.0 - cfg.fit_share);
  const double closed_s = serve_s * cfg.closed_share;
  const double open_s = serve_s - closed_s;
  const int port = serving->server->port();

  const std::vector<Request> closed =
      ClosedLoop(port, serving->samples, conns, closed_s);
  run->layer["serve.closed_rps"] = ChunkRates(closed);
  run->wall["closed-loop req/s"] = Median(ChunkRates(closed));

  const double plain_s = run->trace ? open_s / 2 : open_s;
  // CPU per request is taken at the open loop's low fixed rate, where
  // nearly every request runs in a batch of its own; in the closed loop it
  // would depend on how requests happened to coalesce.
  double cpu0 = ProcessCpuSeconds();
  const std::vector<Request> open =
      OpenLoop(port, serving->samples, conns, cfg.open_rate, plain_s, 0);
  const double plain_cpu_per_req =
      (ProcessCpuSeconds() - cpu0) / static_cast<double>(open.size());
  run->e2e["serve_cpu_ms"].push_back(1e3 * plain_cpu_per_req);
  const Latencies plain = LatenciesOf(open);
  run->layer["serve.open_p50_ms"].push_back(Median(plain.from_due_ms));
  run->wall["open-loop p50 ms"] = Median(plain.from_due_ms);
  char note[256];
  std::snprintf(note, sizeof(note),
                "open loop %.0f req/s over %d connections: p50 %.3f ms, p99 "
                "%.3f ms (n=%zu, unbounded), generator lateness p99 %.3f ms",
                cfg.open_rate, conns, Median(plain.from_due_ms),
                Quantile(plain.from_due_ms, 0.99), plain.from_due_ms.size(),
                Quantile(plain.late_ms, 0.99));
  run->notes.push_back(note);

  std::vector<Request> traced;
  if (run->trace) {
    const std::string log_path = run->run_dir + "/access.log";
    auto server = Must(StartServer(&serving->registry, log_path),
                       "traced server");
    Spans().set_enabled(true);
    obs::Registry::Instance().ResetPeaks();
    const obs::Snapshot before = TakeSnapshot();
    const auto t0 = Clock::now();
    cpu0 = ProcessCpuSeconds();
    traced = OpenLoop(server->port(), serving->samples, conns, cfg.open_rate,
                      open_s / 2, static_cast<int64_t>(open.size()));
    const double traced_cpu_per_req =
        (ProcessCpuSeconds() - cpu0) / static_cast<double>(traced.size());
    const double busy = SecondsSince(t0);
    const obs::Snapshot after = TakeSnapshot();
    Spans().set_enabled(false);
    server->Stop();
    auto delta = [&](const char* key) { return Get(after, key) - Get(before, key); };
    const double batches = delta("serve.batch.size.count");
    run->layer["serve.batch_size_mean"].push_back(
        batches > 0 ? delta("serve.batch.size.sum") / batches : 0.0);
    run->layer["serve.batch_execute_ms"].push_back(
        batches > 0 ? 1e3 * delta("serve.batch.execute_seconds.sum") / batches
                    : 0.0);
    const std::map<uint64_t, double> server_ms = ReadAccessLog(log_path);
    std::vector<double> srv;
    for (const Request& r : traced) {
      auto it = server_ms.find(r.trace_id);
      if (r.ok && it != server_ms.end()) srv.push_back(it->second);
    }
    const Latencies t = LatenciesOf(traced);
    run->layer["serve.server_p50_ms"].push_back(Median(srv));
    run->layer["serve.wire_ms"].push_back(Median(t.rtt_ms) - Median(srv));
    run->layer["serve.generator_late_ms"].push_back(Quantile(t.late_ms, 0.99));
    if (cfg.primary == Primary::kServe) {
      RecordCounters(run, Diff(before, after),
                     static_cast<double>(traced.size()), busy);
      run->layer["obs.trace_overhead_ratio"].push_back(traced_cpu_per_req /
                                                       plain_cpu_per_req);
    }
  }
  const double shed = Get(TakeSnapshot(), "serve.shed");

  // Checks: every served label equals the offline label of its sample; no
  // request failed or was shed.
  PhaseCount closed_phase{"serve.closed_loop",
                          static_cast<int64_t>(closed.size()), 0};
  PhaseCount open_phase{"serve.open_loop",
                        static_cast<int64_t>(open.size() + traced.size()), 0};
  std::vector<const Request*> served;
  for (const std::vector<Request>* reqs :
       {&closed, &open, static_cast<const std::vector<Request>*>(&traced)}) {
    for (const Request& r : *reqs) {
      if (r.ok) {
        served.push_back(&r);
      } else {
        (reqs == &closed ? closed_phase : open_phase).failed += 1;
      }
    }
  }
  run->phases.push_back(closed_phase);
  run->phases.push_back(open_phase);
  const std::vector<int64_t> wrong_offline = Shifted(offline, classes);
  int64_t mismatches = 0;
  std::vector<int64_t> served_label(static_cast<size_t>(serving->test.size()),
                                    -1);
  for (const Request* r : served) {
    mismatches += r->label != offline[static_cast<size_t>(r->sample)];
    served_label[static_cast<size_t>(r->sample)] = r->label;
  }
  run->verifier.Check(
      "serve.matches_offline",
      [&](bool wrong) {
        const std::vector<int64_t>& ref = wrong ? wrong_offline : offline;
        for (const Request* r : served) {
          if (r->label != ref[static_cast<size_t>(r->sample)]) return false;
        }
        return true;
      },
      std::to_string(mismatches) + " served labels differ from offline");
  const int64_t failed = closed_phase.failed + open_phase.failed;
  run->verifier.Check(
      "serve.no_failures",
      [&](bool wrong) {
        // Wrong reference: one more answered request than was sent.
        return failed == 0 && shed == 0 &&
               static_cast<int64_t>(served.size()) + (wrong ? 1 : 0) ==
                   closed_phase.attempted + open_phase.attempted;
      },
      std::to_string(failed) + " failed, " + std::to_string(shed) + " shed");
  if (cfg.primary != Primary::kServe) {
    serving->server->Stop();
    return;
  }

  // The served labels score the served accuracy; every test sample must
  // have been served.
  bool all_served = true;
  for (int64_t l : served_label) all_served = all_served && l >= 0;
  const double served_acc = Recount(served_label, serving->test.y);
  const std::vector<int64_t> wrong_truth = Shifted(serving->test.y, classes);
  run->verifier.Check(
      "serve.above_chance",
      [&](bool wrong) {
        return all_served &&
               Recount(served_label, wrong ? wrong_truth : serving->test.y) >=
                   1.0 / static_cast<double>(classes) + cfg.chance_margin;
      },
      "served accuracy " + std::to_string(served_acc) +
          (all_served ? "" : " (not every sample served)"));
  run->e2e["test_accuracy"].push_back(served_acc);
  if (cfg.int8) {
    // An fp32 session of the same bundle: fp32 checkpoint, int8 mode off.
    double fp32_acc = 0;
    {
      simd::ScopedQuantMode fp32_mode(false);
      auto model = Must(
          models::LoadOrPretrain(cfg.model, ModelConfig(cfg.model),
                                 models::PretrainOptions{},
                                 run->paths.vit_ckpt()),
          "fp32 checkpoint");
      pipeline::Registry local;
      auto session = Must(local.LoadAndInstall("fp32", serving->prefix, model,
                                               cfg.adapter, classes,
                                               pipeline::SessionOptions{}),
                          "fp32 bundle");
      fp32_acc = Recount(Must(session->PredictBatch(serving->test.x), "fp32"),
                         serving->test.y);
    }
    run->verifier.Check(
        "serve.int8_vs_fp32",
        [&](bool wrong) {
          return std::fabs(served_acc - (fp32_acc + (wrong ? 0.05 : 0.0))) <=
                 0.02;
        },
        "int8 " + std::to_string(served_acc) + " fp32 " +
            std::to_string(fp32_acc));
    std::snprintf(note, sizeof(note), "int8 served accuracy %.4f, fp32 %.4f",
                  served_acc, fp32_acc);
    run->notes.push_back(note);
  }
  serving->server->Stop();
}

// Fit phase: each repetition fits a fresh in-memory draw, then pushes the
// test split through the fitted session. Traced runs alternate traced and
// untraced repetitions.
void FitPhase(Run* run) {
  const WorkloadConfig& cfg = run->cfg;
  std::vector<pipeline::EpochProgress> epochs;
  auto config = run->ClassifierConfigFor(0);
  const int64_t joint_epochs = config.finetune.joint_epochs;
  config.finetune.on_epoch = [&epochs](const pipeline::EpochProgress& p) {
    epochs.push_back(p);
  };
  auto clf = Must(finetune::TsfmClassifier::Create(config), "create");
  PhaseCount fit_phase{"fit", 0, 0};
  PhaseCount predict_phase{"predict", 0, 0};
  std::vector<double> traced_cpu, untraced_cpu, fit_wall, predict_sps, acc;
  const double budget = run->seconds * cfg.fit_share;
  const auto start = Clock::now();
  for (int64_t rep = 0; rep < kMinFits || SecondsSince(start) < budget;
       ++rep) {
    const data::DatasetPair pair = run->Draw(rep + 1);
    const bool traced_rep = run->trace && rep % 2 == 0;
    Spans().set_enabled(traced_rep);
    obs::Registry::Instance().ResetPeaks();
    const obs::Snapshot before = TakeSnapshot();
    fit_phase.attempted += 1;
    const FitOutcome fit = FitOnce(&clf, &epochs, pair);
    const obs::Snapshot after = TakeSnapshot();
    std::vector<int64_t> labels;
    for (int pass = 0; pass < cfg.predict_passes; ++pass) {
      predict_phase.attempted += 1;
      const double cpu0 = ProcessCpuSeconds();
      const double wall = Timed("pipeline.predict_test_split", [&] {
        labels = Must(clf.session()->PredictBatch(pair.test.x), "predict");
      });
      const double n = static_cast<double>(pair.test.size());
      run->e2e["predict_cpu_us"].push_back(
          1e6 * (ProcessCpuSeconds() - cpu0) / n);
      predict_sps.push_back(n / wall);
    }
    run->e2e["fit_cpu_s"].push_back(fit.fit_cpu_s);
    fit_wall.push_back(fit.fit_s);
    acc.push_back(Recount(labels, pair.test.y));
    (traced_rep ? traced_cpu : untraced_cpu).push_back(fit.fit_cpu_s);
    CheckFit(run, clf, fit, pair, labels, joint_epochs);
    if (traced_rep) {
      RecordFitLayers(run, fit);
      if (cfg.primary == Primary::kFit) {
        RecordCounters(run, Diff(before, after), 1.0, fit.fit_s);
      }
      TraceLayers(run, clf, pair);
    }
    Spans().set_enabled(false);
  }
  run->phases.push_back(fit_phase);
  run->phases.push_back(predict_phase);
  run->layer["finetune.fit_wall_s"] = fit_wall;
  run->layer["pipeline.predict_sps"] = predict_sps;
  run->wall["fit wall s"] = Median(fit_wall);
  run->wall["predict samples/s"] = Median(predict_sps);
  if (cfg.primary == Primary::kFit) {
    run->e2e["test_accuracy"].push_back(Median(acc));
    if (run->trace) {
      run->layer["obs.trace_overhead_ratio"].push_back(Median(traced_cpu) /
                                                       Median(untraced_cpu));
    }
  }
  std::string line = "fit wall s per repetition:";
  char buf[32];
  for (double f : fit_wall) {
    std::snprintf(buf, sizeof(buf), " %.3f", f);
    line += buf;
  }
  run->notes.push_back(line);
}

void RunWorkload(Run* run) {
  const WorkloadConfig& cfg = run->cfg;
  if (simd::QuantModeEnabled() != cfg.int8) {
    Die(std::string("workload ") + cfg.name + " expects int8 mode " +
        (cfg.int8 ? "on" : "off") + " (TSFM_QUANT)");
  }
  // Preparation, not part of set-up: the seed's draw as CSV files, the way a
  // user hands data to the CLI.
  const std::string train_csv = run->run_dir + "/train.csv";
  const std::string test_csv = run->run_dir + "/test.csv";
  {
    const data::DatasetPair pair = run->Draw(0);
    Must(data::SaveCsv(pair.train, train_csv), "save train csv");
    Must(data::SaveCsv(pair.test, test_csv), "save test csv");
  }
  const double steal0 = StealSeconds();
  const double cpu0 = ProcessCpuSeconds();
  Spans().set_enabled(run->trace);
  std::unique_ptr<Serving> serving = SetUp(run, train_csv, test_csv);
  Spans().set_enabled(false);
  run->notes.push_back(
      "set-up ended " + std::to_string(SecondsSince(kProcessStart)) +
      " s after process start; wall s per round " +
      std::to_string(run->setup_wall_s[0]) + " " +
      std::to_string(run->setup_wall_s[1]) + " " +
      std::to_string(run->setup_wall_s[2]));
  ServePhase(run, serving.get());
  serving.reset();
  FitPhase(run);

  const double steal = StealSeconds() - steal0;
  const double cpu = ProcessCpuSeconds() - cpu0;
  run->layer["host.steal_share"].push_back(steal / (steal + cpu));
  run->wall["host steal share"] = steal / (steal + cpu);
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  run->e2e["peak_rss_mb"].push_back(static_cast<double>(ru.ru_maxrss) /
                                    1024.0);
}

// ---------------------------------------------------------------------------

std::string CpuModel() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : v;
}

void PrintHeader(const Run& run) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              run.cfg.name.c_str(), static_cast<unsigned long long>(run.seed),
              run.seconds, run.trace ? 1 : 0);
  std::printf("# machine nproc=%ld cpu=\"%s\" simd_backend=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
              simd::BackendName());
  std::printf("# threads TSFM_NUM_THREADS=%s pool=%d TSFM_QUANT=%s "
              "TSFM_SIMD=%s int8=%d\n",
              EnvOr("TSFM_NUM_THREADS", "unset").c_str(),
              runtime::NumThreads(), EnvOr("TSFM_QUANT", "unset").c_str(),
              EnvOr("TSFM_SIMD", "unset").c_str(),
              simd::QuantModeEnabled() ? 1 : 0);
  std::printf("# compiler %s\n", __VERSION__);
  std::fflush(stdout);
}

void PrintMetricsJson(const Run& run, bool correct, int64_t attempted,
                      int64_t failed) {
  const auto& defs = run.trace ? PerLayerDefs() : EndToEndDefs();
  const Samples& samples = run.trace ? run.layer : run.e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = samples.find(defs[i].name);
    const double v = it == samples.end() ? 0.0 : Median(it->second);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, std::isfinite(v) ? v : 0.0,
                  defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Prepare(const Paths& paths) {
  fs::create_directories(paths.ckpt_dir());
  if (simd::QuantModeEnabled()) Die("--prepare must run with int8 mode off");
  Must(models::LoadOrPretrain(models::ModelKind::kMoment,
                              models::MomentSmallConfig(),
                              models::PretrainOptions{}, paths.moment_ckpt()),
       "pretrain MOMENT");
  Must(models::LoadOrPretrain(models::ModelKind::kVit, models::VitSmallConfig(),
                              models::PretrainOptions{}, paths.vit_ckpt()),
       "pretrain ViT");
  Must(nn::QuantizeCheckpointFile(paths.vit_ckpt(), paths.vit_q8_ckpt()),
       "quantize ViT");
  std::printf("prepared checkpoints in %s\n", paths.ckpt_dir().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool prepare = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--prepare") {
      prepare = true;
    } else if (a == "--selftest") {
      selftest = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      Die("unexpected argument '" + a + "'");
    }
  }
  Paths paths;
  paths.work_dir = args.count("work-dir") ? args["work-dir"] : "";
  if (paths.work_dir.empty()) Die("--work-dir is required");
  if (prepare) return Prepare(paths);

  const auto cfg = FindWorkload(args["workload"]);
  if (!cfg) Die("unknown --workload '" + args["workload"] + "'");
  if (!args.count("seed") || !args.count("seconds")) {
    Die("--seed and --seconds are required");
  }
  const uint64_t seed = std::stoull(args["seed"]);
  const double seconds = std::stod(args["seconds"]);
  const bool trace = args.count("trace") && args["trace"] == "1";
  if (!(seconds > 0)) Die("--seconds must be positive");
  for (const std::string& ck : {paths.moment_ckpt(), paths.vit_ckpt(),
                                paths.vit_q8_ckpt()}) {
    if (!fs::exists(ck)) Die("missing checkpoint " + ck + " (run --prepare)");
  }

  Run run(*cfg, paths, seed, seconds, trace, selftest);
  run.run_dir = paths.work_dir + "/runs/" + cfg->name + "-" +
                std::to_string(seed) + "-" + std::to_string(getpid());
  fs::create_directories(run.run_dir);
  fs::create_directories(paths.out_dir());
  PrintHeader(run);

  RunWorkload(&run);

  // Guards: a stray environment variable must not change what is measured.
  const obs::Snapshot snap = TakeSnapshot();
  const double cache_lookups = Get(snap, "cache.hit") + Get(snap, "cache.miss");
  const double graph_execs = Get(snap, "graph.executions");
  run.verifier.Check(
      "env.no_cache_no_graph",
      [&](bool wrong) {
        return cache_lookups + (wrong ? 1 : 0) == 0 && graph_execs == 0;
      },
      "cache lookups " + std::to_string(cache_lookups) + ", graph executions " +
          std::to_string(graph_execs));

  // Footer.
  int64_t attempted = 0, failed = 0;
  for (const PhaseCount& p : run.phases) {
    std::printf("# phase %-18s attempted %8lld failed %lld\n", p.name.c_str(),
                static_cast<long long>(p.attempted),
                static_cast<long long>(p.failed));
    if (p.name != "setup") {
      attempted += p.attempted;
      failed += p.failed;
    }
  }
  for (const std::string& n : run.notes) std::printf("# %s\n", n.c_str());
  for (const auto& [name, value] : run.wall) {
    std::printf("# wall %-20s %.4f\n", name.c_str(), value);
  }
  std::printf("# guards cache.hit+cache.miss=%.0f graph.executions=%.0f\n",
              cache_lookups, graph_execs);
  run.verifier.Print();
  if (trace) {
    const std::string stem = paths.out_dir() + "/" + cfg->name + "-seed" +
                             std::to_string(seed);
    Must(Spans().WriteChromeTrace(stem + ".trace.json"), "write trace");
    const std::string table = Spans().LayerTable();
    std::ofstream(stem + ".layers.txt") << table;
    std::printf("# spans written to %s.trace.json\n%s", stem.c_str(),
                table.c_str());
  }
  std::error_code ec;
  fs::remove_all(run.run_dir, ec);

  const bool correct = run.verifier.AllPassed();
  if (selftest) {
    std::printf("# selftest %s\n",
                run.verifier.SelftestPassed() && correct ? "passed" : "FAILED");
  }
  std::printf("# end workload=%s seed=%llu correct=%s\n", cfg->name.c_str(),
              static_cast<unsigned long long>(seed),
              correct ? "true" : "false");
  PrintMetricsJson(run, correct, attempted, failed);
  std::fflush(stdout);
  if (selftest && !(run.verifier.SelftestPassed() && correct)) return 1;
  return 0;
}

}  // namespace
}  // namespace tsfm::perfbench

int main(int argc, char** argv) { return tsfm::perfbench::Main(argc, argv); }
