#ifndef TSFM_SIMD_SIMD_MATH_H_
#define TSFM_SIMD_SIMD_MATH_H_

#include <cstdint>

// Transcendental kernels (AVX2/NEON with a scalar fallback): the library's
// only definition of exp, tanh, erf, GELU, sigmoid and softmax rows. The
// tensor ops (tensor/ops.cc) and the GELU backward (autograd/ops.cc) call
// these.
//
// Layout of the contract:
//
//   * ExpS/TanhS/ErfS/GeluS/SigmoidS are the scalar functions. Each is
//     written as an explicit fmaf/min/max/select chain whose every
//     operation has an exact per-lane vector counterpart, and each has a
//     single out-of-line machine-code instance: under -ffp-contract=fast,
//     inlined copies in translation units with different codegen flags
//     could contract differently and drift by an ulp.
//
//   * The *Row kernels apply the vector implementation to the main body of
//     the row and the scalar function to the tail. Because the scalar and
//     vector code perform identical operations per lane, a row kernel is
//     BIT-IDENTICAL to applying the scalar function element-wise, for any
//     row length and any split point. This is what keeps the determinism
//     contract: ParallelFor chunk boundaries reduce to "same scalar
//     function, different split", which cannot change any output bit, and
//     the element maps give the same bits on every backend.
//
//   * Results differ from std::exp/std::tanh by a few ulps (the tests
//     compare against libm references in tests/ref_math.h).
//
// Special values: NaN propagates; exp(-inf)=0, exp(+inf)=inf; tanh/erf
// saturate to +/-1; GELU returns x for x >= 8 and -0.0f for x <= -8, so
// GELU(+/-inf) is +inf / -0.0f rather than NaN.
namespace tsfm::simd {

/// Scalar functions (exact per-lane semantics of the vector kernels).
float ExpS(float x);
float TanhS(float x);
float ErfS(float x);
float GeluS(float x);
float SigmoidS(float x);

/// Vectorized element maps; `out` may alias `in`. Bit-identical to the
/// scalar function applied element-wise.
void ExpRow(const float* in, float* out, int64_t n);
void TanhRow(const float* in, float* out, int64_t n);
void ErfRow(const float* in, float* out, int64_t n);
void GeluRow(const float* in, float* out, int64_t n);
void SigmoidRow(const float* in, float* out, int64_t n);

/// Fused softmax / log-softmax of one dense row; `out` may alias `in`.
/// Non-finite contract: NaN rows poison, all--inf rows are uniform, +inf
/// entries split the mass. The denominator is reduced in one fixed order
/// (8 lane sums, a fixed fold, then the tail) on every backend, so the rows
/// are deterministic, thread-count independent and backend-identical like
/// the element maps above.
void SoftmaxRow(const float* in, float* out, int64_t n);
void LogSoftmaxRow(const float* in, float* out, int64_t n);

}  // namespace tsfm::simd

#endif  // TSFM_SIMD_SIMD_MATH_H_
