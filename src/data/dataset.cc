#include "data/dataset.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "tensor/ops.h"

namespace tsfm::data {

Status Validate(const TimeSeriesDataset& ds) {
  if (ds.x.ndim() != 3) {
    return Status::InvalidArgument("dataset x must be (N, T, D), got " +
                                   ShapeToString(ds.x.shape()));
  }
  if (static_cast<int64_t>(ds.y.size()) != ds.size()) {
    return Status::InvalidArgument("label count does not match sample count");
  }
  if (ds.num_classes <= 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  for (int64_t label : ds.y) {
    if (label < 0 || label >= ds.num_classes) {
      return Status::InvalidArgument("label out of range: " +
                                     std::to_string(label));
    }
  }
  return Status::OK();
}

ChannelStats ComputeChannelStats(const TimeSeriesDataset& ds) {
  TSFM_CHECK_EQ(ds.x.ndim(), 3);
  const int64_t d = ds.channels();
  Tensor flat = ds.x.Reshape(Shape{-1, d});  // (N*T, D)
  ChannelStats stats;
  stats.mean = Mean(flat, 0);
  Tensor var = Variance(flat, 0);
  stats.std = Sqrt(var);
  float* p = stats.std.mutable_data();
  for (int64_t i = 0; i < d; ++i) p[i] = std::max(p[i], 1e-6f);
  return stats;
}

TimeSeriesDataset NormalizeWith(const TimeSeriesDataset& ds,
                                const ChannelStats& stats) {
  TimeSeriesDataset out = ds;
  // (N, T, D) - (D) broadcasts over leading dims.
  out.x = Div(Sub(ds.x, stats.mean), stats.std);
  return out;
}

TimeSeriesDataset Select(const TimeSeriesDataset& ds,
                         const std::vector<int64_t>& indices) {
  TimeSeriesDataset out;
  out.name = ds.name;
  out.num_classes = ds.num_classes;
  out.x = TakeRows(ds.x, indices);
  out.y.reserve(indices.size());
  for (int64_t i : indices) {
    TSFM_CHECK_GE(i, 0);
    TSFM_CHECK_LT(i, ds.size());
    out.y.push_back(ds.y[static_cast<size_t>(i)]);
  }
  return out;
}

std::vector<std::vector<int64_t>> MakeBatches(int64_t n, int64_t batch_size,
                                              Rng* rng) {
  TSFM_CHECK_GT(batch_size, 0);
  std::vector<int64_t> idx(static_cast<size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  if (rng != nullptr) rng->Shuffle(&idx);
  std::vector<std::vector<int64_t>> batches;
  for (int64_t start = 0; start < n; start += batch_size) {
    const int64_t end = std::min(n, start + batch_size);
    batches.emplace_back(idx.begin() + start, idx.begin() + end);
  }
  return batches;
}

std::vector<int64_t> ClassCounts(const TimeSeriesDataset& ds) {
  std::vector<int64_t> counts(static_cast<size_t>(ds.num_classes), 0);
  for (int64_t label : ds.y) ++counts[static_cast<size_t>(label)];
  return counts;
}

double Accuracy(const std::vector<int64_t>& predictions,
                const TimeSeriesDataset& ds) {
  TSFM_CHECK_EQ(predictions.size(), ds.y.size());
  if (predictions.empty()) return 0.0;
  int64_t correct = 0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == ds.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(predictions.size());
}

}  // namespace tsfm::data
