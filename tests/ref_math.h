#ifndef TSFM_TESTS_REF_MATH_H_
#define TSFM_TESTS_REF_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

// libm-based reference math for tests. The library computes every
// transcendental through simd/simd_math.h; these std::exp/std::tanh versions
// are the independent reference those kernels are compared against. They
// keep the same non-finite contracts as the production kernels.
namespace tsfm::ref {

/// GELU, tanh approximation as used by transformers. |x| >= 8 saturates to
/// x (or -0.0f) before the x^3 term can overflow.
inline float GeluScalar(float x) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  constexpr float kA = 0.044715f;
  constexpr float kSat = 8.0f;
  if (x >= kSat) return x;
  if (x <= -kSat) return -0.0f;
  const float inner = kSqrt2OverPi * (x + kA * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

inline float SigmoidScalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// Max over the non-NaN entries of a row (-inf when there are none), and
/// whether any entry was NaN.
inline float RowMaxSkipNan(const float* row, int64_t len, bool* has_nan) {
  float mx = -std::numeric_limits<float>::infinity();
  bool nan = false;
  for (int64_t i = 0; i < len; ++i) {
    const float v = row[i];
    if (v != v) {
      nan = true;
    } else {
      mx = std::max(mx, v);
    }
  }
  *has_nan = nan;
  return mx;
}

/// Max-subtracted softmax of one row, ascending-index float accumulation;
/// `out` may alias `row`. Non-finite contract: any NaN poisons the row, an
/// all--inf row is uniform, +inf entries split the mass equally.
inline void SoftmaxRow(const float* row, float* out, int64_t len) {
  bool has_nan = false;
  const float mx = RowMaxSkipNan(row, len, &has_nan);
  if (has_nan) {
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    for (int64_t i = 0; i < len; ++i) out[i] = qnan;
    return;
  }
  if (mx == std::numeric_limits<float>::infinity()) {
    int64_t count = 0;
    for (int64_t i = 0; i < len; ++i) count += (row[i] == mx) ? 1 : 0;
    const float share = 1.0f / static_cast<float>(count);
    for (int64_t i = 0; i < len; ++i) out[i] = (row[i] == mx) ? share : 0.0f;
    return;
  }
  if (mx == -std::numeric_limits<float>::infinity()) {
    const float share = 1.0f / static_cast<float>(len);
    for (int64_t i = 0; i < len; ++i) out[i] = share;
    return;
  }
  float denom = 0.0f;
  for (int64_t i = 0; i < len; ++i) {
    out[i] = std::exp(row[i] - mx);
    denom += out[i];
  }
  const float inv = 1.0f / denom;
  for (int64_t i = 0; i < len; ++i) out[i] *= inv;
}

/// Log-softmax of one row with SoftmaxRow's non-finite contract in log
/// space; `out` may alias `row`.
inline void LogSoftmaxRow(const float* row, float* out, int64_t len) {
  bool has_nan = false;
  const float mx = RowMaxSkipNan(row, len, &has_nan);
  if (has_nan) {
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    for (int64_t i = 0; i < len; ++i) out[i] = qnan;
    return;
  }
  if (mx == std::numeric_limits<float>::infinity()) {
    int64_t count = 0;
    for (int64_t i = 0; i < len; ++i) count += (row[i] == mx) ? 1 : 0;
    const float log_share = -std::log(static_cast<float>(count));
    for (int64_t i = 0; i < len; ++i) {
      out[i] = (row[i] == mx) ? log_share
                              : -std::numeric_limits<float>::infinity();
    }
    return;
  }
  if (mx == -std::numeric_limits<float>::infinity()) {
    const float log_share = -std::log(static_cast<float>(len));
    for (int64_t i = 0; i < len; ++i) out[i] = log_share;
    return;
  }
  float denom = 0.0f;
  for (int64_t i = 0; i < len; ++i) denom += std::exp(row[i] - mx);
  const float log_denom = std::log(denom) + mx;
  for (int64_t i = 0; i < len; ++i) out[i] = row[i] - log_denom;
}

}  // namespace tsfm::ref

#endif  // TSFM_TESTS_REF_MATH_H_
