#ifndef TSFM_TENSOR_OP_MATH_H_
#define TSFM_TENSOR_OP_MATH_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

// Shape and stride helpers shared by the elementwise kernels in
// tensor/ops.cc. Transcendentals (exp, tanh, GELU, sigmoid, softmax rows)
// live in simd/simd_math.h, their only definition.
namespace tsfm::ops::detail {

/// Row-major strides for `shape`.
inline std::vector<int64_t> RowMajorStrides(const Shape& shape) {
  std::vector<int64_t> s(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    s[static_cast<size_t>(i)] = s[static_cast<size_t>(i + 1)] *
                                shape[static_cast<size_t>(i + 1)];
  }
  return s;
}

/// Strides for reading tensor `t` (which may itself be a strided view) as if
/// broadcast to `out_shape`: the view's actual strides on matching dims, 0 on
/// broadcast dims. `t.shape()` is right-aligned against `out_shape`. Lets
/// strided kernels consume views without materializing them.
inline std::vector<int64_t> BroadcastViewStrides(const Tensor& t,
                                                 const Shape& out_shape) {
  const Shape& shape = t.shape();
  std::vector<int64_t> out(out_shape.size(), 0);
  const int64_t offset = static_cast<int64_t>(out_shape.size()) -
                         static_cast<int64_t>(shape.size());
  for (size_t i = 0; i < shape.size(); ++i) {
    const size_t oi = static_cast<size_t>(offset) + i;
    if (shape[i] == out_shape[oi]) {
      out[oi] = t.strides()[i];
    } else {
      TSFM_CHECK_EQ(shape[i], 1)
          << "broadcast mismatch " << ShapeToString(shape) << " vs "
          << ShapeToString(out_shape);
      out[oi] = 0;
    }
  }
  return out;
}

}  // namespace tsfm::ops::detail

#endif  // TSFM_TENSOR_OP_MATH_H_
