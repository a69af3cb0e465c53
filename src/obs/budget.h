#ifndef TSFM_OBS_BUDGET_H_
#define TSFM_OBS_BUDGET_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace tsfm::obs {

/// A resource envelope for one run, mirroring the paper's testbed cap
/// (V100: 32 GB, 2 hours). A limit of 0 means unbounded on that axis.
struct BudgetLimits {
  double mem_bytes = 0;
  double time_seconds = 0;
  /// Fraction of either limit at which the monitor warns once on stderr
  /// before the hard cap aborts the run.
  double soft_fraction = 0.8;
};

/// Outcome of comparing a run's usage against a budget. Memory is judged
/// before time, matching the cost model's COM-before-TO convention.
struct BudgetVerdict {
  enum class Kind { kFits, kExceedsMemory, kExceedsTime };
  Kind kind = Kind::kFits;
  double mem_used_bytes = 0;
  double time_used_seconds = 0;
  double mem_budget_bytes = 0;     // 0 = unbounded
  double time_budget_seconds = 0;  // 0 = unbounded
  /// Remaining budget as a percentage of the limit (negative when over);
  /// 100 when the axis is unbounded.
  double mem_headroom_pct = 100.0;
  double time_headroom_pct = 100.0;

  bool fits() const { return kind == Kind::kFits; }
};

/// "fits", "exceeds_memory" or "exceeds_time" (the run-report vocabulary).
const char* BudgetVerdictName(BudgetVerdict::Kind kind);

/// Pure judgment of `mem_used_bytes` / `time_used_seconds` against `limits`.
/// Used by run reports and `tsfm estimate`; involves no monitor state.
BudgetVerdict JudgeBudget(const BudgetLimits& limits, double mem_used_bytes,
                          double time_used_seconds);

/// Installs `limits` as the process-wide live budget and arms the monitor
/// (clock restarted, warn/trip latches cleared, allocator peak reset to the
/// current live bytes). Limits of {0, 0} are accepted but never trip.
void SetBudget(const BudgetLimits& limits);

/// Removes the budget; CheckBudget becomes a single relaxed atomic load.
void ClearBudget();

/// True when SetBudget installed a budget with at least one non-zero limit.
bool BudgetConfigured();

BudgetLimits CurrentBudget();

/// Restarts the monitored window (clock, latches, allocator peak) without
/// changing the limits. Called at the start of each fine-tune run so the
/// budget covers that run, not the process.
void BeginBudgetRun();

/// Polls the budget: reads the allocator's peak live bytes through the
/// metrics registry and the elapsed wall-clock, warns once on stderr past
/// the soft threshold, and past a hard cap latches and returns
/// ResourceExhausted with a diagnosis (usage vs budget plus the top spans
/// from the current trace, when one is being recorded). With no budget
/// configured this is one relaxed atomic load. Once tripped, every
/// subsequent call returns the same error — callers at any loop level can
/// poll and propagate. `where` names the calling loop in the diagnosis.
Status CheckBudget(const char* where);

/// True once CheckBudget has latched a hard-cap violation in this window.
bool BudgetTripped();

}  // namespace tsfm::obs

#endif  // TSFM_OBS_BUDGET_H_
