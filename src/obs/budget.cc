#include "obs/budget.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace tsfm::obs {

namespace {

using Clock = std::chrono::steady_clock;

struct MonitorState {
  std::mutex mu;
  BudgetLimits limits;              // guarded by mu
  Clock::time_point start;          // guarded by mu
  std::string trip_message;         // guarded by mu
  std::atomic<bool> soft_warned{false};
  std::atomic<bool> tripped{false};
};

MonitorState& State() {
  static MonitorState* s = new MonitorState();  // leaked: checked at exit
  return *s;
}

// Fast-path flag: CheckBudget with no budget must cost one relaxed load.
std::atomic<bool>& ConfiguredFlag() {
  static std::atomic<bool> configured{false};
  return configured;
}

double PeakPoolBytes() {
  const Snapshot snap = Registry::Instance().TakeSnapshot();
  auto it = snap.find("pool.peak_live_bytes");
  return it == snap.end() ? 0.0 : it->second;
}

std::string FormatBytes(double bytes) {
  char buf[64];
  if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", bytes / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

// "hottest spans: a 120.0ms x3, b 40.2ms x17, c 1.1ms x2" from the current
// trace, or a hint when no spans were recorded.
std::string HottestSpans() {
  const Profile profile = Profile::FromCurrentTrace();
  if (profile.empty()) {
    return "no span data (set --trace/--profile or TSFM_TRACE to record a "
           "breakdown)";
  }
  std::ostringstream os;
  os << "hottest spans:";
  bool first = true;
  for (const ProfileNode& n : profile.TopByTotal(3)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s %s %.1fms x%lld", first ? "" : ",",
                  n.name.c_str(), static_cast<double>(n.total_ns) / 1e6,
                  static_cast<long long>(n.calls));
    os << buf;
    first = false;
  }
  return os.str();
}

void Rearm(MonitorState& s) {
  s.start = Clock::now();
  s.soft_warned.store(false, std::memory_order_relaxed);
  s.tripped.store(false, std::memory_order_relaxed);
  s.trip_message.clear();
  // The memory axis judges the allocator's high-water mark, so each window
  // restarts it from the current live footprint (weights etc. still count).
  Registry::Instance().ResetPeaks();
}

}  // namespace

const char* BudgetVerdictName(BudgetVerdict::Kind kind) {
  switch (kind) {
    case BudgetVerdict::Kind::kFits:
      return "fits";
    case BudgetVerdict::Kind::kExceedsMemory:
      return "exceeds_memory";
    case BudgetVerdict::Kind::kExceedsTime:
      return "exceeds_time";
  }
  return "unknown";
}

BudgetVerdict JudgeBudget(const BudgetLimits& limits, double mem_used_bytes,
                          double time_used_seconds) {
  BudgetVerdict v;
  v.mem_used_bytes = mem_used_bytes;
  v.time_used_seconds = time_used_seconds;
  v.mem_budget_bytes = limits.mem_bytes;
  v.time_budget_seconds = limits.time_seconds;
  if (limits.mem_bytes > 0) {
    v.mem_headroom_pct =
        (limits.mem_bytes - mem_used_bytes) / limits.mem_bytes * 100.0;
  }
  if (limits.time_seconds > 0) {
    v.time_headroom_pct =
        (limits.time_seconds - time_used_seconds) / limits.time_seconds *
        100.0;
  }
  if (limits.mem_bytes > 0 && mem_used_bytes > limits.mem_bytes) {
    v.kind = BudgetVerdict::Kind::kExceedsMemory;
  } else if (limits.time_seconds > 0 &&
             time_used_seconds > limits.time_seconds) {
    v.kind = BudgetVerdict::Kind::kExceedsTime;
  }
  return v;
}

void SetBudget(const BudgetLimits& limits) {
  MonitorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.limits = limits;
  Rearm(s);
  ConfiguredFlag().store(limits.mem_bytes > 0 || limits.time_seconds > 0,
                         std::memory_order_relaxed);
}

void ClearBudget() {
  MonitorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.limits = BudgetLimits{};
  Rearm(s);
  ConfiguredFlag().store(false, std::memory_order_relaxed);
}

bool BudgetConfigured() {
  return ConfiguredFlag().load(std::memory_order_relaxed);
}

BudgetLimits CurrentBudget() {
  MonitorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.limits;
}

void BeginBudgetRun() {
  if (!BudgetConfigured()) return;
  MonitorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  Rearm(s);
}

bool BudgetTripped() {
  return State().tripped.load(std::memory_order_relaxed);
}

Status CheckBudget(const char* where) {
  if (!ConfiguredFlag().load(std::memory_order_relaxed)) return Status::OK();
  MonitorState& s = State();
  if (s.tripped.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(s.mu);
    return Status::ResourceExhausted(s.trip_message);
  }

  BudgetLimits limits;
  double elapsed;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    limits = s.limits;
    elapsed = std::chrono::duration<double>(Clock::now() - s.start).count();
  }
  const double peak = PeakPoolBytes();
  const BudgetVerdict v = JudgeBudget(limits, peak, elapsed);

  if (!v.fits()) {
    std::ostringstream os;
    const bool mem = v.kind == BudgetVerdict::Kind::kExceedsMemory;
    os << (mem ? "memory" : "time") << " budget exceeded at " << where << ": ";
    if (mem) {
      os << "peak allocator bytes " << FormatBytes(peak) << " > budget "
         << FormatBytes(limits.mem_bytes);
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "elapsed %.1fs > budget %.1fs", elapsed,
                    limits.time_seconds);
      os << buf;
    }
    os << "; " << HottestSpans();
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.tripped.load(std::memory_order_relaxed)) {
      s.trip_message = os.str();
      s.tripped.store(true, std::memory_order_release);
      std::fprintf(stderr, "budget: %s\n", s.trip_message.c_str());
    }
    return Status::ResourceExhausted(s.trip_message);
  }

  // Soft threshold: one warning per window, from whichever axis crosses
  // first, so the user hears about a tight fit before the abort.
  const double soft = limits.soft_fraction;
  const bool mem_soft = limits.mem_bytes > 0 && peak > soft * limits.mem_bytes;
  const bool time_soft =
      limits.time_seconds > 0 && elapsed > soft * limits.time_seconds;
  if ((mem_soft || time_soft) &&
      !s.soft_warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "budget: warning at %s: %s %.0f%% of its budget "
                 "(memory %s / %s, elapsed %.1fs / %.1fs)\n",
                 where, mem_soft ? "memory passed" : "time passed",
                 soft * 100.0, FormatBytes(peak).c_str(),
                 FormatBytes(limits.mem_bytes).c_str(), elapsed,
                 limits.time_seconds);
  }
  return Status::OK();
}

}  // namespace tsfm::obs
