// Inference layer norm. Compiled with -ffp-contract=off
// (src/tensor/CMakeLists.txt): the composed autograd version rounds after
// every elementwise op (Square, then Sum; Scale, then AddScalar; Mul by
// gamma, then Add beta), and this kernel must round at the same places to
// give the same bits.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

// Rows normalized together: each row's sums are serial dependency chains,
// so interleaving a few rows keeps the adder busy. Every row still sums in
// ascending order, exactly as the composed Sum does.
constexpr int kRowBlock = 4;

template <int nr>
void NormalizeRows(const float* x, float* y, int64_t len, float inv,
                   float epsilon, const float* gamma, const float* beta) {
  // mean = Sum * (1/len), ascending order.
  float sum[nr] = {};
  for (int64_t l = 0; l < len; ++l) {
    for (int r = 0; r < nr; ++r) sum[r] += x[r * len + l];
  }
  float mu[nr];
  for (int r = 0; r < nr; ++r) mu[r] = sum[r] * inv;
  // var = Sum((x - mean)^2) * (1/len); the centered rows are kept in y.
  float sq[nr] = {};
  for (int64_t l = 0; l < len; ++l) {
    for (int r = 0; r < nr; ++r) {
      const float c = x[r * len + l] - mu[r];
      y[r * len + l] = c;
      sq[r] += c * c;
    }
  }
  for (int r = 0; r < nr; ++r) {
    const float var = sq[r] * inv;
    const float inv_std = 1.0f / std::sqrt(var + epsilon);
    float* yr = y + r * len;
    for (int64_t l = 0; l < len; ++l) {
      yr[l] = yr[l] * inv_std * gamma[l] + beta[l];
    }
  }
}

}  // namespace

Tensor LayerNormLastAxis(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, float epsilon) {
  TSFM_CHECK_GE(x.ndim(), 1);
  const int64_t len = x.dim(-1);
  TSFM_CHECK_EQ(gamma.numel(), len);
  TSFM_CHECK_EQ(beta.numel(), len);
  const Tensor xd = x.Contiguous();
  const Tensor gd = gamma.Contiguous();
  const Tensor bd = beta.Contiguous();
  Tensor out = Tensor::Empty(xd.shape());
  const int64_t rows = len == 0 ? 0 : xd.numel() / len;
  const float inv = 1.0f / static_cast<float>(len);
  const float* px = xd.data();
  const float* pg = gd.data();
  const float* pb = bd.data();
  float* po = out.mutable_data();
  const int64_t grain =
      std::max<int64_t>(1, (1 << 14) / std::max<int64_t>(1, len));
  runtime::ParallelFor(0, rows, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r0 = lo; r0 < hi; r0 += kRowBlock) {
      if (hi - r0 >= kRowBlock) {
        NormalizeRows<kRowBlock>(px + r0 * len, po + r0 * len, len, inv,
                                 epsilon, pg, pb);
      } else {
        for (int64_t r = r0; r < hi; ++r) {
          NormalizeRows<1>(px + r * len, po + r * len, len, inv, epsilon, pg,
                           pb);
        }
      }
    }
  });
  return out;
}

}  // namespace tsfm
