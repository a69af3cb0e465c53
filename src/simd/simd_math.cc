#include "simd/simd_math.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "simd/dispatch.h"

#if defined(__AVX2__) && defined(__FMA__) && \
    (defined(__x86_64__) || defined(__i386__))
#define TSFM_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define TSFM_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace tsfm::simd {
namespace {

// ---------------------------------------------------------------------------
// Shared constants. The exp core is the classic Cephes range reduction:
// n = floor(x*log2e + 1/2), r = x - n*ln2 (two-part ln2 for accuracy),
// exp(x) = 2^n * P(r) with a degree-6 polynomial on |r| <= ln2/2.
// ---------------------------------------------------------------------------
constexpr float kExpHi = 88.3762626647949f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kNegLn2Hi = -0.693359375f;
constexpr float kNegLn2Lo = 2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

// Abramowitz & Stegun 7.1.26 erf polynomial (|error| <= 1.5e-7).
constexpr float kErfP = 0.3275911f;
constexpr float kErfA1 = 0.254829592f;
constexpr float kErfA2 = -0.284496736f;
constexpr float kErfA3 = 1.421413741f;
constexpr float kErfA4 = -1.453152027f;
constexpr float kErfA5 = 1.061405429f;

constexpr float kGeluSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluA = 0.044715f;
constexpr float kGeluSat = 8.0f;

constexpr float kInf = std::numeric_limits<float>::infinity();

// Scalar mirrors of the SSE/AVX min/max semantics: when either operand is
// NaN the SECOND operand is returned. Keeps the scalar tail lane-exact with
// _mm256_min_ps/_mm256_max_ps even on unclamped NaN inputs.
inline float MinPs(float a, float b) { return a < b ? a : b; }
inline float MaxPs(float a, float b) { return a > b ? a : b; }

// 2^e for e in [-126, 127] via exponent bits.
inline float Pow2I(int32_t e) {
  const uint32_t bits = static_cast<uint32_t>(e + 127) << 23;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// |mag| with the sign bit of `sgn` OR-ed in (mag must be >= 0 or carry a
// clear sign bit). Mirrors the vector or(and(sign)) idiom bit-for-bit,
// including NaN payloads.
inline float OrSignOf(float mag, float sgn) {
  uint32_t mb, sb;
  std::memcpy(&mb, &mag, sizeof(mb));
  std::memcpy(&sb, &sgn, sizeof(sb));
  mb |= (sb & 0x80000000u);
  float f;
  std::memcpy(&f, &mb, sizeof(f));
  return f;
}

inline float AbsPs(float x) {
  uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  b &= 0x7fffffffu;
  float f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

inline float NegPs(float x) {
  uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  b ^= 0x80000000u;
  float f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

// Core on pre-clamped input; every operation below has an exact vector twin.
inline float ExpCoreS(float x) {
  const float fx = std::floor(std::fmaf(x, kLog2e, 0.5f));
  float r = std::fmaf(fx, kNegLn2Hi, x);
  r = std::fmaf(fx, kNegLn2Lo, r);
  float y = kExpP0;
  y = std::fmaf(y, r, kExpP1);
  y = std::fmaf(y, r, kExpP2);
  y = std::fmaf(y, r, kExpP3);
  y = std::fmaf(y, r, kExpP4);
  y = std::fmaf(y, r, kExpP5);
  y = std::fmaf(y, r * r, r);
  y = y + 1.0f;
  // 2^n in two halves so n = 128 (exp just under the fp32 overflow bound)
  // stays finite: y * 2^128 can be representable even though 2^128 is not.
  const int32_t n = static_cast<int32_t>(fx);
  const int32_t nb = n >> 1;  // arithmetic shift, matches vector srai
  return (y * Pow2I(n - nb)) * Pow2I(nb);
}

inline float ExpImplS(float x) {
  const float xc = MaxPs(MinPs(x, kExpHi), kExpLo);
  float res = ExpCoreS(xc);
  res = (x > kExpHi) ? kInf : res;
  res = (x < kExpLo) ? 0.0f : res;
  res = (x != x) ? x : res;
  return res;
}

inline float TanhImplS(float x) {
  const float ax = AbsPs(x);
  const float e = ExpImplS(2.0f * ax);
  const float t = 1.0f - 2.0f / (e + 1.0f);
  return OrSignOf(t, x);
}

inline float ErfImplS(float x) {
  const float ax = AbsPs(x);
  const float t = 1.0f / std::fmaf(kErfP, ax, 1.0f);
  float p = kErfA5;
  p = std::fmaf(p, t, kErfA4);
  p = std::fmaf(p, t, kErfA3);
  p = std::fmaf(p, t, kErfA2);
  p = std::fmaf(p, t, kErfA1);
  p = p * t;
  const float e = ExpImplS(NegPs(ax * ax));
  const float r = std::fmaf(NegPs(p), e, 1.0f);
  return OrSignOf(r, x);
}

inline float GeluImplS(float x) {
  const float u = (x * x) * x;
  const float inner = kGeluSqrt2OverPi * std::fmaf(kGeluA, u, x);
  const float t = TanhImplS(inner);
  float res = (0.5f * x) * (1.0f + t);
  res = (x >= kGeluSat) ? x : res;
  res = (x <= -kGeluSat) ? -0.0f : res;
  return res;
}

inline float SigmoidImplS(float x) {
  return 1.0f / (1.0f + ExpImplS(NegPs(x)));
}

#if defined(TSFM_SIMD_AVX2)

inline __m256 ExpCoreV(__m256 x) {
  const __m256 fx = _mm256_floor_ps(
      _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2e), _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_fmadd_ps(fx, _mm256_set1_ps(kNegLn2Hi), x);
  r = _mm256_fmadd_ps(fx, _mm256_set1_ps(kNegLn2Lo), r);
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP1));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP2));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP3));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP4));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP5));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(r, r), r);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i nb = _mm256_srai_epi32(n, 1);
  const __m256i na = _mm256_sub_epi32(n, nb);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 pa = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(na, bias), 23));
  const __m256 pb = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(nb, bias), 23));
  return _mm256_mul_ps(_mm256_mul_ps(y, pa), pb);
}

inline __m256 ExpV(__m256 x) {
  const __m256 hi = _mm256_set1_ps(kExpHi);
  const __m256 lo = _mm256_set1_ps(kExpLo);
  const __m256 xc = _mm256_max_ps(_mm256_min_ps(x, hi), lo);
  __m256 res = ExpCoreV(xc);
  res = _mm256_blendv_ps(res, _mm256_set1_ps(kInf),
                         _mm256_cmp_ps(x, hi, _CMP_GT_OQ));
  res = _mm256_blendv_ps(res, _mm256_setzero_ps(),
                         _mm256_cmp_ps(x, lo, _CMP_LT_OQ));
  res = _mm256_blendv_ps(res, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
  return res;
}

inline __m256 AbsV(__m256 x) {
  return _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
}

inline __m256 SignBitV(__m256 x) {
  return _mm256_and_ps(x,
                       _mm256_castsi256_ps(_mm256_set1_epi32(0x80000000u)));
}

inline __m256 NegV(__m256 x) {
  return _mm256_xor_ps(x,
                       _mm256_castsi256_ps(_mm256_set1_epi32(0x80000000u)));
}

inline __m256 TanhV(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 ax = AbsV(x);
  const __m256 e = ExpV(_mm256_mul_ps(_mm256_set1_ps(2.0f), ax));
  const __m256 t = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  return _mm256_or_ps(t, SignBitV(x));
}

inline __m256 ErfV(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 ax = AbsV(x);
  const __m256 t = _mm256_div_ps(
      one, _mm256_fmadd_ps(_mm256_set1_ps(kErfP), ax, one));
  __m256 p = _mm256_set1_ps(kErfA5);
  p = _mm256_fmadd_ps(p, t, _mm256_set1_ps(kErfA4));
  p = _mm256_fmadd_ps(p, t, _mm256_set1_ps(kErfA3));
  p = _mm256_fmadd_ps(p, t, _mm256_set1_ps(kErfA2));
  p = _mm256_fmadd_ps(p, t, _mm256_set1_ps(kErfA1));
  p = _mm256_mul_ps(p, t);
  const __m256 e = ExpV(NegV(_mm256_mul_ps(ax, ax)));
  const __m256 r = _mm256_fmadd_ps(NegV(p), e, one);
  return _mm256_or_ps(r, SignBitV(x));
}

inline __m256 GeluV(__m256 x) {
  const __m256 u = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
  const __m256 inner = _mm256_mul_ps(
      _mm256_set1_ps(kGeluSqrt2OverPi),
      _mm256_fmadd_ps(_mm256_set1_ps(kGeluA), u, x));
  const __m256 t = TanhV(inner);
  __m256 res = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_set1_ps(0.5f), x),
      _mm256_add_ps(_mm256_set1_ps(1.0f), t));
  res = _mm256_blendv_ps(
      res, x, _mm256_cmp_ps(x, _mm256_set1_ps(kGeluSat), _CMP_GE_OQ));
  res = _mm256_blendv_ps(
      res, _mm256_set1_ps(-0.0f),
      _mm256_cmp_ps(x, _mm256_set1_ps(-kGeluSat), _CMP_LE_OQ));
  return res;
}

inline __m256 SigmoidV(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  return _mm256_div_ps(one, _mm256_add_ps(one, ExpV(NegV(x))));
}

// Fixed-order horizontal sum: ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
inline float HSumV(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  const __m128 s = _mm_add_ps(lo, hi);            // l0+l4, l1+l5, l2+l6, l3+l7
  const __m128 sh = _mm_movehl_ps(s, s);          // l2+l6, l3+l7
  const __m128 s2 = _mm_add_ps(s, sh);
  const __m128 s3 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1));
  return _mm_cvtss_f32(s3);
}

inline float HMaxV(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  const __m128 s = _mm_max_ps(lo, hi);
  const __m128 s2 = _mm_max_ps(s, _mm_movehl_ps(s, s));
  const __m128 s3 = _mm_max_ss(s2, _mm_shuffle_ps(s2, s2, 1));
  return _mm_cvtss_f32(s3);
}

template <typename VecFn, typename ScalFn>
inline void MapRowAvx2(const float* in, float* out, int64_t n, VecFn vf,
                       ScalFn sf) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, vf(_mm256_loadu_ps(in + i)));
  }
  for (; i < n; ++i) out[i] = sf(in[i]);
}

#elif defined(TSFM_SIMD_NEON)

// NEON (AArch64) twins of the AVX2 kernels. Same per-lane operation
// sequence; vminq/vmaxq propagate NaN where SSE returns the second operand,
// but every NaN lane is overwritten by the final NaN select, so outputs
// still agree with the scalar reference.
inline float32x4_t ExpCoreV(float32x4_t x) {
  const float32x4_t fx = vrndmq_f32(
      vfmaq_f32(vdupq_n_f32(0.5f), x, vdupq_n_f32(kLog2e)));
  float32x4_t r = vfmaq_f32(x, fx, vdupq_n_f32(kNegLn2Hi));
  r = vfmaq_f32(r, fx, vdupq_n_f32(kNegLn2Lo));
  float32x4_t y = vdupq_n_f32(kExpP0);
  y = vfmaq_f32(vdupq_n_f32(kExpP1), y, r);
  y = vfmaq_f32(vdupq_n_f32(kExpP2), y, r);
  y = vfmaq_f32(vdupq_n_f32(kExpP3), y, r);
  y = vfmaq_f32(vdupq_n_f32(kExpP4), y, r);
  y = vfmaq_f32(vdupq_n_f32(kExpP5), y, r);
  y = vfmaq_f32(r, y, vmulq_f32(r, r));
  y = vaddq_f32(y, vdupq_n_f32(1.0f));
  const int32x4_t n = vcvtq_s32_f32(fx);
  const int32x4_t nb = vshrq_n_s32(n, 1);
  const int32x4_t na = vsubq_s32(n, nb);
  const int32x4_t bias = vdupq_n_s32(127);
  const float32x4_t pa =
      vreinterpretq_f32_s32(vshlq_n_s32(vaddq_s32(na, bias), 23));
  const float32x4_t pb =
      vreinterpretq_f32_s32(vshlq_n_s32(vaddq_s32(nb, bias), 23));
  return vmulq_f32(vmulq_f32(y, pa), pb);
}

inline float32x4_t ExpV(float32x4_t x) {
  const float32x4_t hi = vdupq_n_f32(kExpHi);
  const float32x4_t lo = vdupq_n_f32(kExpLo);
  const float32x4_t xc = vmaxq_f32(vminq_f32(x, hi), lo);
  float32x4_t res = ExpCoreV(xc);
  res = vbslq_f32(vcgtq_f32(x, hi), vdupq_n_f32(kInf), res);
  res = vbslq_f32(vcltq_f32(x, lo), vdupq_n_f32(0.0f), res);
  const uint32x4_t nan = vmvnq_u32(vceqq_f32(x, x));
  res = vbslq_f32(nan, x, res);
  return res;
}

inline float32x4_t SignBitV(float32x4_t x) {
  return vreinterpretq_f32_u32(vandq_u32(
      vreinterpretq_u32_f32(x), vdupq_n_u32(0x80000000u)));
}

inline float32x4_t OrV(float32x4_t a, float32x4_t b) {
  return vreinterpretq_f32_u32(
      vorrq_u32(vreinterpretq_u32_f32(a), vreinterpretq_u32_f32(b)));
}

inline float32x4_t TanhV(float32x4_t x) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t ax = vabsq_f32(x);
  const float32x4_t e = ExpV(vmulq_f32(vdupq_n_f32(2.0f), ax));
  const float32x4_t t =
      vsubq_f32(one, vdivq_f32(vdupq_n_f32(2.0f), vaddq_f32(e, one)));
  return OrV(t, SignBitV(x));
}

inline float32x4_t ErfV(float32x4_t x) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t ax = vabsq_f32(x);
  const float32x4_t t =
      vdivq_f32(one, vfmaq_f32(one, vdupq_n_f32(kErfP), ax));
  float32x4_t p = vdupq_n_f32(kErfA5);
  p = vfmaq_f32(vdupq_n_f32(kErfA4), p, t);
  p = vfmaq_f32(vdupq_n_f32(kErfA3), p, t);
  p = vfmaq_f32(vdupq_n_f32(kErfA2), p, t);
  p = vfmaq_f32(vdupq_n_f32(kErfA1), p, t);
  p = vmulq_f32(p, t);
  const float32x4_t e = ExpV(vnegq_f32(vmulq_f32(ax, ax)));
  const float32x4_t r = vfmaq_f32(one, vnegq_f32(p), e);
  return OrV(r, SignBitV(x));
}

inline float32x4_t GeluV(float32x4_t x) {
  const float32x4_t u = vmulq_f32(vmulq_f32(x, x), x);
  const float32x4_t inner = vmulq_f32(
      vdupq_n_f32(kGeluSqrt2OverPi), vfmaq_f32(x, vdupq_n_f32(kGeluA), u));
  const float32x4_t t = TanhV(inner);
  float32x4_t res =
      vmulq_f32(vmulq_f32(vdupq_n_f32(0.5f), x),
                vaddq_f32(vdupq_n_f32(1.0f), t));
  res = vbslq_f32(vcgeq_f32(x, vdupq_n_f32(kGeluSat)), x, res);
  res = vbslq_f32(vcleq_f32(x, vdupq_n_f32(-kGeluSat)), vdupq_n_f32(-0.0f),
                  res);
  return res;
}

inline float32x4_t SigmoidV(float32x4_t x) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  return vdivq_f32(one, vaddq_f32(one, ExpV(vnegq_f32(x))));
}

template <typename VecFn, typename ScalFn>
inline void MapRowNeon(const float* in, float* out, int64_t n, VecFn vf,
                       ScalFn sf) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vf(vld1q_f32(in + i)));
  }
  for (; i < n; ++i) out[i] = sf(in[i]);
}

#endif  // TSFM_SIMD_AVX2 / TSFM_SIMD_NEON

// Row max over non-NaN entries plus NaN detection, vectorized.
inline float RowMaxSkipNan(const float* in, int64_t n, bool* has_nan) {
  float mx = -kInf;
  bool nan = false;
  int64_t i = 0;
#if defined(TSFM_SIMD_AVX2)
  if (CpuHasAvx2() && n >= 8) {
    const __m256 ninf = _mm256_set1_ps(-kInf);
    __m256 mv = ninf;
    __m256 nanacc = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(in + i);
      const __m256 unord = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
      nanacc = _mm256_or_ps(nanacc, unord);
      mv = _mm256_max_ps(mv, _mm256_blendv_ps(v, ninf, unord));
    }
    mx = HMaxV(mv);
    nan = _mm256_movemask_ps(nanacc) != 0;
  }
#endif
  for (; i < n; ++i) {
    const float v = in[i];
    if (v != v) {
      nan = true;
    } else {
      mx = std::max(mx, v);
    }
  }
  *has_nan = nan;
  return mx;
}

// Handles the non-finite rows shared by SoftmaxRow/LogSoftmaxRow; returns
// true when the row was fully written.
inline bool SoftmaxEdgeRow(const float* in, float* out, int64_t n, float mx,
                           bool has_nan, bool log_space) {
  if (has_nan) {
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    for (int64_t i = 0; i < n; ++i) out[i] = qnan;
    return true;
  }
  if (mx == kInf) {
    int64_t count = 0;
    for (int64_t i = 0; i < n; ++i) count += (in[i] == kInf) ? 1 : 0;
    const float share = 1.0f / static_cast<float>(count);
    const float log_share = -std::log(static_cast<float>(count));
    for (int64_t i = 0; i < n; ++i) {
      if (log_space) {
        out[i] = (in[i] == kInf) ? log_share : -kInf;
      } else {
        out[i] = (in[i] == kInf) ? share : 0.0f;
      }
    }
    return true;
  }
  if (mx == -kInf) {
    const float fill = log_space ? -std::log(static_cast<float>(n))
                                 : 1.0f / static_cast<float>(n);
    for (int64_t i = 0; i < n; ++i) out[i] = fill;
    return true;
  }
  return false;
}

// exp(in - mx), returning the denominator. Every backend reduces in the
// same order, so softmax rows are backend-identical like the element maps:
// rows of 8 or more accumulate 8 lane sums over the full 8-blocks (lane l
// sums entries l, l+8, ... in ascending order), fold them as
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) (HSumV), then add the tail entries
// in ascending order; shorter rows sum in ascending order. When `out` is
// non-null the exponentials are stored there (out may alias in); when null
// only the sum is computed, leaving `in` intact.
inline float ExpSubSum(const float* in, float* out, int64_t n, float mx) {
  int64_t i = 0;
  float denom = 0.0f;
#if defined(TSFM_SIMD_AVX2)
  if (CpuHasAvx2() && n >= 8) {
    const __m256 mxv = _mm256_set1_ps(mx);
    __m256 acc = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
      const __m256 e = ExpV(_mm256_sub_ps(_mm256_loadu_ps(in + i), mxv));
      if (out != nullptr) _mm256_storeu_ps(out + i, e);
      acc = _mm256_add_ps(acc, e);
    }
    denom = HSumV(acc);
  }
#endif
  if (i == 0 && n >= 8) {
    // Scalar twin of the vector body above.
    float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    for (; i + 8 <= n; i += 8) {
      for (int l = 0; l < 8; ++l) {
        const float e = ExpS(in[i + l] - mx);
        if (out != nullptr) out[i + l] = e;
        lane[l] += e;
      }
    }
    denom = ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
            ((lane[1] + lane[5]) + (lane[3] + lane[7]));
  }
  for (; i < n; ++i) {
    const float e = ExpS(in[i] - mx);
    if (out != nullptr) out[i] = e;
    denom += e;
  }
  return denom;
}

}  // namespace

// Out-of-line, single machine-code instance each (see header).
__attribute__((noinline)) float ExpS(float x) { return ExpImplS(x); }
__attribute__((noinline)) float TanhS(float x) { return TanhImplS(x); }
__attribute__((noinline)) float ErfS(float x) { return ErfImplS(x); }
__attribute__((noinline)) float GeluS(float x) { return GeluImplS(x); }
__attribute__((noinline)) float SigmoidS(float x) { return SigmoidImplS(x); }

#define TSFM_SIMD_DEFINE_ROW(Name, VecFn, ScalFn)                     \
  void Name(const float* in, float* out, int64_t n) {                 \
    TSFM_SIMD_ROW_BODY(VecFn, ScalFn)                                 \
  }

#if defined(TSFM_SIMD_AVX2)
#define TSFM_SIMD_ROW_BODY(VecFn, ScalFn)                             \
  if (CpuHasAvx2()) {                                                 \
    MapRowAvx2(in, out, n, [](__m256 v) { return VecFn(v); },         \
               [](float v) { return ScalFn(v); });                    \
    return;                                                           \
  }                                                                   \
  for (int64_t i = 0; i < n; ++i) out[i] = ScalFn(in[i]);
#elif defined(TSFM_SIMD_NEON)
#define TSFM_SIMD_ROW_BODY(VecFn, ScalFn)                             \
  MapRowNeon(in, out, n, [](float32x4_t v) { return VecFn(v); },      \
             [](float v) { return ScalFn(v); });
#else
#define TSFM_SIMD_ROW_BODY(VecFn, ScalFn)                             \
  for (int64_t i = 0; i < n; ++i) out[i] = ScalFn(in[i]);
#endif

TSFM_SIMD_DEFINE_ROW(ExpRow, ExpV, ExpImplS)
TSFM_SIMD_DEFINE_ROW(TanhRow, TanhV, TanhImplS)
TSFM_SIMD_DEFINE_ROW(ErfRow, ErfV, ErfImplS)
TSFM_SIMD_DEFINE_ROW(GeluRow, GeluV, GeluImplS)
TSFM_SIMD_DEFINE_ROW(SigmoidRow, SigmoidV, SigmoidImplS)

#undef TSFM_SIMD_DEFINE_ROW
#undef TSFM_SIMD_ROW_BODY

void SoftmaxRow(const float* in, float* out, int64_t n) {
  if (n <= 0) return;
  bool has_nan = false;
  const float mx = RowMaxSkipNan(in, n, &has_nan);
  if (SoftmaxEdgeRow(in, out, n, mx, has_nan, /*log_space=*/false)) return;
  const float denom = ExpSubSum(in, out, n, mx);
  const float inv = 1.0f / denom;
  int64_t i = 0;
#if defined(TSFM_SIMD_AVX2)
  if (CpuHasAvx2()) {
    const __m256 invv = _mm256_set1_ps(inv);
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(out + i,
                       _mm256_mul_ps(_mm256_loadu_ps(out + i), invv));
    }
  }
#endif
  for (; i < n; ++i) out[i] *= inv;
}

void LogSoftmaxRow(const float* in, float* out, int64_t n) {
  if (n <= 0) return;
  bool has_nan = false;
  const float mx = RowMaxSkipNan(in, n, &has_nan);
  if (SoftmaxEdgeRow(in, out, n, mx, has_nan, /*log_space=*/true)) return;
  // Sum-only pass: `out` may alias `in`, so the exponentials are not stored.
  const float denom = ExpSubSum(in, /*out=*/nullptr, n, mx);
  const float log_denom = std::log(denom) + mx;
  int64_t i = 0;
#if defined(TSFM_SIMD_AVX2)
  if (CpuHasAvx2()) {
    const __m256 ld = _mm256_set1_ps(log_denom);
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(out + i,
                       _mm256_sub_ps(_mm256_loadu_ps(in + i), ld));
    }
  }
#endif
  for (; i < n; ++i) out[i] = in[i] - log_denom;
}

}  // namespace tsfm::simd
