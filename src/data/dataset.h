#ifndef TSFM_DATA_DATASET_H_
#define TSFM_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace tsfm::data {

/// A labeled multivariate time-series classification dataset.
/// `x` has shape (N, T, D): N samples, T time steps, D channels.
struct TimeSeriesDataset {
  std::string name;
  Tensor x;
  std::vector<int64_t> y;
  int64_t num_classes = 0;

  int64_t size() const { return x.ndim() == 3 ? x.dim(0) : 0; }
  int64_t length() const { return x.ndim() == 3 ? x.dim(1) : 0; }
  int64_t channels() const { return x.ndim() == 3 ? x.dim(2) : 0; }
};

/// Validates internal consistency (shapes, label range). Returns
/// InvalidArgument describing the first violation.
Status Validate(const TimeSeriesDataset& ds);

/// Per-channel z-score statistics computed over all samples and time steps.
struct ChannelStats {
  Tensor mean;  // (D)
  Tensor std;   // (D), clamped away from zero
};

/// Computes per-channel statistics of `ds` (over N and T jointly).
ChannelStats ComputeChannelStats(const TimeSeriesDataset& ds);

/// Returns a copy of `ds` normalized with `stats` (train-set statistics are
/// applied to both splits, as in the paper's preprocessing).
TimeSeriesDataset NormalizeWith(const TimeSeriesDataset& ds,
                                const ChannelStats& stats);

/// Extracts the samples at `indices` (with their labels).
TimeSeriesDataset Select(const TimeSeriesDataset& ds,
                         const std::vector<int64_t>& indices);

/// Splits [0, n) into shuffled mini-batches of size `batch_size` (last batch
/// may be smaller). If `rng` is null, order is sequential.
std::vector<std::vector<int64_t>> MakeBatches(int64_t n, int64_t batch_size,
                                              Rng* rng);

/// Per-class sample counts (size num_classes).
std::vector<int64_t> ClassCounts(const TimeSeriesDataset& ds);

/// Classification accuracy of `predictions` against `ds.y`.
double Accuracy(const std::vector<int64_t>& predictions,
                const TimeSeriesDataset& ds);

}  // namespace tsfm::data

#endif  // TSFM_DATA_DATASET_H_
