#ifndef TSFM_OBS_PROFILER_H_
#define TSFM_OBS_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace tsfm::obs {

/// One aggregated call-tree node: every span occurrence with the same stack
/// path (enclosing span names joined by ';') collapses into one node, across
/// all threads. Times are steady-clock nanoseconds.
struct ProfileNode {
  std::string name;   // span name of this node
  std::string path;   // "outer;inner;leaf" stack path (';'-separated)
  int depth = 0;      // number of enclosing spans
  int64_t calls = 0;
  int64_t total_ns = 0;  // sum of span durations
  int64_t self_ns = 0;   // total minus time spent in child spans
  int64_t min_ns = 0;
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  int64_t max_ns = 0;
};

/// Aggregated profile built from completed trace spans. Nesting is
/// reconstructed per thread id from the [start_ns, start_ns + dur_ns)
/// intervals: a span is a child of the innermost span on the same tid whose
/// interval contains it. Spans on worker threads whose parent ran on another
/// thread (ParallelFor chunks) therefore root their own subtree, exactly as
/// chrome://tracing renders them.
class Profile {
 public:
  /// Builds the call tree from `events` (any order; TraceSnapshot order is
  /// fine). Events whose parents fell out of the trace ring become roots.
  static Profile FromEvents(const std::vector<TraceEvent>& events);

  /// FromEvents(TraceSnapshot()).
  static Profile FromCurrentTrace();

  bool empty() const { return nodes_.empty(); }

  /// Nodes in depth-first order (parents before children, siblings by
  /// descending total time).
  const std::vector<ProfileNode>& nodes() const { return nodes_; }

  /// Per-name rollup (stack-path-independent), sorted by descending total
  /// time, truncated to `n` entries. Used by the budget monitor's diagnosis.
  std::vector<ProfileNode> TopByTotal(int n) const;

  /// Sorted, indented text table: calls, total/self ms, min/p50/p99/max.
  std::string RenderText() const;

  /// {"profile":[{"path":...,"calls":...,...}, ...]} — one object per node.
  std::string RenderJson() const;

  /// Collapsed-stack (flamegraph) format: one "a;b;c <self_us>" line per
  /// node with non-zero self time. Feed to flamegraph.pl / speedscope.
  std::string RenderCollapsed() const;

 private:
  std::vector<ProfileNode> nodes_;
};

/// Writes `profile` to `path`; the format follows the extension:
/// ".json" -> RenderJson, ".folded" -> RenderCollapsed, else RenderText.
/// Returns false if the file cannot be written.
bool WriteProfile(const Profile& profile, const std::string& path);

namespace internal {

/// Registers the atexit profile writer for `path` without touching the
/// tracing flag (the trace layer's own env resolution calls this while it is
/// mid-initialization, when EnableTracing would recurse). Idempotent; the
/// first non-empty path wins.
void ArmProfileAtExit(const std::string& path);

}  // namespace internal

}  // namespace tsfm::obs

#endif  // TSFM_OBS_PROFILER_H_
