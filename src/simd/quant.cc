#include "simd/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "simd/dispatch.h"

#if defined(__AVX2__) && defined(__FMA__) && \
    (defined(__x86_64__) || defined(__i386__))
#define TSFM_QUANT_AVX2 1
#include <immintrin.h>
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)
#define TSFM_QUANT_VNNI 1
#endif
#endif

// This file is compiled with -ffp-contract=off (src/simd/CMakeLists.txt):
// the dequantize epilogue (acc * sa * sw + bias) must round after every
// operation in every kernel, so the kernels stay bit-identical to each
// other and to an unfused bias add.
namespace tsfm::simd {
namespace {

constexpr int64_t kMaxQuantK = 1 << 16;  // int32 accumulator exactness bound
// Rows quantized and multiplied together: each weight load is reused across
// this many activation rows, which is what lets the int8 kernels beat the
// fp32 GEMM (one row at a time they are weight-bandwidth-bound).
constexpr int kRowBlock = 4;

inline int8_t QuantizeValue(float v, float scale) {
  const float q = std::nearbyint(v / scale);
  const float c = std::min(127.0f, std::max(-127.0f, q));
  return static_cast<int8_t>(c);
}

bool CpuHasAvx512Vnni() {
#if defined(TSFM_QUANT_VNNI)
  static const bool has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512bw") &&
                          __builtin_cpu_supports("avx512vnni");
  return has;
#else
  return false;
#endif
}

QuantKernel Resolve(QuantKernel kernel) {
  if (kernel != QuantKernel::kAuto) {
    TSFM_CHECK(QuantKernelAvailable(kernel))
        << "QuantMatMul: kernel not available on this CPU";
    return kernel;
  }
  if (CpuHasAvx512Vnni()) return QuantKernel::kAvx512Vnni;
  if (QuantKernelAvailable(QuantKernel::kAvx2)) return QuantKernel::kAvx2;
  return QuantKernel::kScalar;
}

// Symmetric per-row activation quantization: returns s = max|x| / 127 (1
// for an all-zero row) and writes q[t] = clamp(nearbyint(x[t] / s)). The
// AVX2 body does the same IEEE operations per lane as QuantizeValue (exact
// divide, round-to-nearest-even, the same NaN-to--127 clamp order), so it
// is bit-identical to the scalar loop.
float QuantizeRow(const float* x, int64_t k, int8_t* q) {
  float maxabs = 0.0f;
  int64_t t = 0;
#if defined(TSFM_QUANT_AVX2)
  const bool vec = CpuHasAvx2() && k >= 8;
  if (vec) {
    const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 mv = _mm256_setzero_ps();
    for (; t + 8 <= k; t += 8) {
      // max(|x|, acc) keeps acc on a NaN lane, as std::max(acc, |x|) does.
      mv = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(x + t), absmask), mv);
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, mv);
    for (float l : lanes) maxabs = std::max(maxabs, l);
  }
#endif
  for (; t < k; ++t) maxabs = std::max(maxabs, std::fabs(x[t]));
  const float s = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  t = 0;
#if defined(TSFM_QUANT_AVX2)
  if (vec) {
    const __m256 sv = _mm256_set1_ps(s);
    const __m256 lo = _mm256_set1_ps(-127.0f);
    const __m256 hi = _mm256_set1_ps(127.0f);
    for (; t + 8 <= k; t += 8) {
      const __m256 r =
          _mm256_round_ps(_mm256_div_ps(_mm256_loadu_ps(x + t), sv),
                          _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
      const __m256 c = _mm256_min_ps(_mm256_max_ps(r, lo), hi);
      const __m256i i32 = _mm256_cvtps_epi32(c);
      const __m128i i16 = _mm_packs_epi32(_mm256_castsi256_si128(i32),
                                          _mm256_extracti128_si256(i32, 1));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(q + t),
                       _mm_packs_epi16(i16, i16));
    }
  }
#endif
  for (; t < k; ++t) q[t] = QuantizeValue(x[t], s);
  return s;
}

// Reference kernel over `nr` quantized rows (qa, `ka` apart), reading the
// row-major int8 weights directly.
void RowsScalar(const int8_t* qa, int64_t ka, int nr, const float* sa,
                const QuantizedMatrix& q, const float* bias, float* c) {
  const int64_t k = q.rows, n = q.cols;
  for (int r = 0; r < nr; ++r) {
    const int8_t* arow = qa + r * ka;
    float* crow = c + r * n;
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t t = 0; t < k; ++t) {
        acc += static_cast<int32_t>(arow[t]) *
               static_cast<int32_t>(q.data[static_cast<size_t>(t * n + j)]);
      }
      const float y = (static_cast<float>(acc) * sa[r]) *
                      q.scales[static_cast<size_t>(j)];
      crow[j] = bias != nullptr ? y + bias[j] : y;
    }
  }
}

#if defined(TSFM_QUANT_AVX2)

// R rows x C 8-column vectors from column j; the last vector covers only
// the lanes set in `last`. a16 holds R int16-widened rows `stride` apart.
template <int R, int C>
inline void TileAvx2(const int16_t* a16, int64_t stride,
                     const QuantizedMatrix& q, const float* sa,
                     const float* bias, float* c, int64_t j, __m256i last) {
  const int64_t n = q.cols;
  const int64_t kp = (q.rows + 1) / 2;
  const int32_t* w = reinterpret_cast<const int32_t*>(q.pairs16.data()) + j;
  const __m256i full = _mm256_set1_epi32(-1);
  __m256i acc[R][C];
  for (auto& row : acc) {
    for (auto& v : row) v = _mm256_setzero_si256();
  }
  for (int64_t kk = 0; kk < kp; ++kk) {
    __m256i b[C];
    for (int cc = 0; cc < C; ++cc) {
      b[cc] = _mm256_maskload_epi32(w + kk * n + 8 * cc,
                                    cc == C - 1 ? last : full);
    }
    for (int r = 0; r < R; ++r) {
      int32_t pair;
      std::memcpy(&pair, a16 + r * stride + 2 * kk, sizeof(pair));
      const __m256i av = _mm256_set1_epi32(pair);
      for (int cc = 0; cc < C; ++cc) {
        acc[r][cc] = _mm256_add_epi32(acc[r][cc], _mm256_madd_epi16(av, b[cc]));
      }
    }
  }
  for (int cc = 0; cc < C; ++cc) {
    const __m256i m = cc == C - 1 ? last : full;
    const int64_t col = j + 8 * cc;
    const __m256 sw = _mm256_maskload_ps(q.scales.data() + col, m);
    const __m256 bv = bias != nullptr ? _mm256_maskload_ps(bias + col, m)
                                      : _mm256_setzero_ps();
    for (int r = 0; r < R; ++r) {
      __m256 y = _mm256_mul_ps(
          _mm256_mul_ps(_mm256_cvtepi32_ps(acc[r][cc]),
                        _mm256_set1_ps(sa[r])),
          sw);
      if (bias != nullptr) y = _mm256_add_ps(y, bv);
      _mm256_maskstore_ps(c + r * n + col, m, y);
    }
  }
}

__m256i TailMask8(int64_t cols) {
  alignas(32) int32_t lanes[8];
  for (int l = 0; l < 8; ++l) lanes[l] = l < cols ? -1 : 0;
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
}

template <int R>
void RowsAvx2(const int16_t* a16, int64_t stride, const QuantizedMatrix& q,
              const float* sa, const float* bias, float* c) {
  const int64_t n = q.cols;
  const __m256i full = _mm256_set1_epi32(-1);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    TileAvx2<R, 2>(a16, stride, q, sa, bias, c, j, full);
  }
  for (; j < n; j += 8) {
    TileAvx2<R, 1>(a16, stride, q, sa, bias, c, j,
                   n - j >= 8 ? full : TailMask8(n - j));
  }
}

#endif  // TSFM_QUANT_AVX2

#if defined(TSFM_QUANT_VNNI)

// GCC 12's AVX-512 intrinsic headers seed unused lanes with
// _mm512_undefined_*(), which -Wmaybe-uninitialized misreports here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Lanes [0, min(count, 16)) of a 16-lane mask.
inline __mmask16 TailMask16(int64_t count) {
  return count >= 16 ? __mmask16{0xFFFF}
                     : static_cast<__mmask16>((1u << count) - 1);
}

// AVX-512 twin of QuantizeRow for `nr` (<= kRowBlock) rows at once, so
// their max-reduction chains overlap; writes the u8-offset activations
// (q + 128) the VNNI kernel consumes, `stride` bytes apart. Same per-lane
// operations as QuantizeValue, so the same bits; the k tail is handled with
// masked loads (zero lanes cannot raise the max) and masked stores, which
// leave the 128-filled padding of `ua` alone.
void QuantizeRowsVnni(const float* x, int64_t k, int nr, uint8_t* ua,
                      int64_t stride, float* sa) {
  __m512 mx[kRowBlock];
  for (int r = 0; r < nr; ++r) mx[r] = _mm512_setzero_ps();
  for (int64_t t = 0; t < k; t += 16) {
    const __mmask16 m = TailMask16(k - t);
    for (int r = 0; r < nr; ++r) {
      // max(|x|, acc) keeps acc on a NaN lane, as std::max(acc, |x|) does.
      mx[r] = _mm512_max_ps(
          _mm512_abs_ps(_mm512_maskz_loadu_ps(m, x + r * k + t)), mx[r]);
    }
  }
  const __m512 lo = _mm512_set1_ps(-127.0f);
  const __m512 hi = _mm512_set1_ps(127.0f);
  const __m128i offset = _mm_set1_epi8(static_cast<char>(0x80));
  for (int r = 0; r < nr; ++r) {
    const float maxabs = _mm512_reduce_max_ps(mx[r]);
    const float s = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
    sa[r] = s;
    const __m512 sv = _mm512_set1_ps(s);
    for (int64_t t = 0; t < k; t += 16) {
      const __mmask16 m = TailMask16(k - t);
      const __m512 q = _mm512_roundscale_ps(
          _mm512_div_ps(_mm512_maskz_loadu_ps(m, x + r * k + t), sv),
          _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
      const __m512 c = _mm512_min_ps(_mm512_max_ps(q, lo), hi);
      const __m128i bytes = _mm_xor_si128(
          _mm512_cvtsepi32_epi8(_mm512_cvtps_epi32(c)), offset);
      _mm_mask_storeu_epi8(ua + r * stride + t, m, bytes);
    }
  }
}

// R rows x C 16-column vectors from column j; the last vector covers only
// the lanes in `last`. ua holds R u8-offset rows (q + 128) `stride` apart.
template <int R, int C>
inline void TileVnni(const uint8_t* ua, int64_t stride,
                     const QuantizedMatrix& q, const float* sa,
                     const float* bias, float* c, int64_t j, __mmask16 last) {
  const int64_t n = q.cols;
  const int64_t kq = (q.rows + 3) / 4;
  const int32_t* w = reinterpret_cast<const int32_t*>(q.quads8.data()) + j;
  __m512i acc[R][C];
  for (auto& row : acc) {
    for (auto& v : row) v = _mm512_setzero_si512();
  }
  for (int64_t kk = 0; kk < kq; ++kk) {
    __m512i b[C];
    for (int cc = 0; cc < C; ++cc) {
      b[cc] = _mm512_maskz_loadu_epi32(cc == C - 1 ? last : 0xFFFF,
                                       w + kk * n + 16 * cc);
    }
    for (int r = 0; r < R; ++r) {
      int32_t quad;
      std::memcpy(&quad, ua + r * stride + 4 * kk, sizeof(quad));
      const __m512i av = _mm512_set1_epi32(quad);
      for (int cc = 0; cc < C; ++cc) {
        acc[r][cc] = _mm512_dpbusd_epi32(acc[r][cc], av, b[cc]);
      }
    }
  }
  for (int cc = 0; cc < C; ++cc) {
    const __mmask16 m = cc == C - 1 ? last : 0xFFFF;
    const int64_t col = j + 16 * cc;
    const __m512i cs = _mm512_maskz_loadu_epi32(m, q.colsum128.data() + col);
    const __m512 sw = _mm512_maskz_loadu_ps(m, q.scales.data() + col);
    const __m512 bv = bias != nullptr ? _mm512_maskz_loadu_ps(m, bias + col)
                                      : _mm512_setzero_ps();
    for (int r = 0; r < R; ++r) {
      // Removing the +128 activation offset is exact integer arithmetic.
      const __m512i exact = _mm512_sub_epi32(acc[r][cc], cs);
      __m512 y = _mm512_mul_ps(
          _mm512_mul_ps(_mm512_cvtepi32_ps(exact), _mm512_set1_ps(sa[r])),
          sw);
      if (bias != nullptr) y = _mm512_add_ps(y, bv);
      _mm512_mask_storeu_ps(c + r * n + col, m, y);
    }
  }
}

template <int R>
void RowsVnni(const uint8_t* ua, int64_t stride, const QuantizedMatrix& q,
              const float* sa, const float* bias, float* c) {
  const int64_t n = q.cols;
  int64_t j = 0;
  for (; j + 64 <= n; j += 64) {
    TileVnni<R, 4>(ua, stride, q, sa, bias, c, j, 0xFFFF);
  }
  for (; j < n; j += 16) {
    TileVnni<R, 1>(ua, stride, q, sa, bias, c, j, TailMask16(n - j));
  }
}

#pragma GCC diagnostic pop

#endif  // TSFM_QUANT_VNNI

}  // namespace

bool QuantKernelAvailable(QuantKernel kernel) {
  switch (kernel) {
    case QuantKernel::kAuto:
    case QuantKernel::kScalar:
      return true;
    case QuantKernel::kAvx2:
#if defined(TSFM_QUANT_AVX2)
      return CpuHasAvx2();
#else
      return false;
#endif
    case QuantKernel::kAvx512Vnni:
      return CpuHasAvx512Vnni();
  }
  return false;
}

QuantizedMatrix QuantizeWeight(const float* w, int64_t rows, int64_t cols) {
  TSFM_CHECK(rows > 0 && cols > 0) << "QuantizeWeight: empty matrix";
  TSFM_CHECK(rows <= kMaxQuantK)
      << "QuantizeWeight: k = " << rows << " exceeds int32 exactness bound";
  QuantizedMatrix q;
  q.rows = rows;
  q.cols = cols;
  q.scales.assign(static_cast<size_t>(cols), 1.0f);
  q.data.resize(static_cast<size_t>(rows * cols));
  for (int64_t j = 0; j < cols; ++j) {
    float maxabs = 0.0f;
    for (int64_t i = 0; i < rows; ++i) {
      maxabs = std::max(maxabs, std::fabs(w[i * cols + j]));
    }
    if (maxabs > 0.0f) q.scales[static_cast<size_t>(j)] = maxabs / 127.0f;
  }
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      q.data[static_cast<size_t>(i * cols + j)] =
          QuantizeValue(w[i * cols + j], q.scales[static_cast<size_t>(j)]);
    }
  }
  PackQuantized(&q);
  return q;
}

void PackQuantized(QuantizedMatrix* q) {
  const int64_t rows = q->rows, cols = q->cols;
  TSFM_CHECK_EQ(static_cast<int64_t>(q->data.size()), rows * cols)
      << "PackQuantized: data size mismatch";
  TSFM_CHECK(rows <= kMaxQuantK)
      << "PackQuantized: k = " << rows << " exceeds int32 exactness bound";
  q->pairs16.clear();
  q->quads8.clear();
  q->colsum128.clear();
  if (QuantKernelAvailable(QuantKernel::kAvx2)) {
    q->pairs16.assign(static_cast<size_t>((rows + 1) / 2 * cols * 2), 0);
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        q->pairs16[static_cast<size_t>((i / 2) * cols * 2 + j * 2 + (i & 1))] =
            q->data[static_cast<size_t>(i * cols + j)];
      }
    }
  }
  if (QuantKernelAvailable(QuantKernel::kAvx512Vnni)) {
    q->quads8.assign(static_cast<size_t>((rows + 3) / 4 * cols * 4), 0);
    q->colsum128.assign(static_cast<size_t>(cols), 0);
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        const int8_t v = q->data[static_cast<size_t>(i * cols + j)];
        q->quads8[static_cast<size_t>((i / 4) * cols * 4 + j * 4 + (i & 3))] =
            v;
        q->colsum128[static_cast<size_t>(j)] += 128 * static_cast<int32_t>(v);
      }
    }
  }
  q->packed = true;
}

void QuantMatMul(const float* a, int64_t m, const QuantizedMatrix& q,
                 const float* bias, float* c, QuantKernel kernel) {
  const int64_t k = q.rows, n = q.cols;
  TSFM_CHECK(q.packed) << "QuantMatMul: matrix not packed";
  kernel = Resolve(kernel);
  // Same work counters as the fp32 MatMul, so int8 layers show up in
  // tensor.matmul_flops: one relaxed add each per call.
  static obs::Counter* const calls =
      obs::Registry::Instance().GetCounter("tensor.matmul_calls");
  static obs::Counter* const flops =
      obs::Registry::Instance().GetCounter("tensor.matmul_flops");
  calls->Add(1);
  flops->Add(static_cast<uint64_t>(2 * m * k * n));
  // Row stride of the quantized scratch: k rounded up to a whole k-quad,
  // zero-padded (the padded weights are zero too).
  const int64_t ka = (k + 3) / 4 * 4;
  // Any row partition gives the same bits (each row is quantized and
  // accumulated exactly on its own); the grain only sizes the work per
  // chunk, whole row blocks of about a quarter of a million multiply-adds.
  const int64_t grain =
      std::max<int64_t>(1, (1 << 18) / std::max<int64_t>(1, k * n) /
                               kRowBlock) *
      kRowBlock;
  runtime::ParallelFor(0, m, grain, [&](int64_t r0, int64_t r1) {
    std::vector<int8_t> qa(static_cast<size_t>(kRowBlock * ka), 0);
    std::vector<int16_t> a16;
    std::vector<uint8_t> ua;  // VNNI: q + 128, padding 128 (q = 0)
    if (kernel == QuantKernel::kAvx2) a16.resize(qa.size());
    if (kernel == QuantKernel::kAvx512Vnni) ua.assign(qa.size(), 0x80);
    float sa[kRowBlock];
    for (int64_t i = r0; i < r1; i += kRowBlock) {
      const int nr = static_cast<int>(std::min<int64_t>(kRowBlock, r1 - i));
      if (kernel != QuantKernel::kAvx512Vnni) {
        for (int r = 0; r < nr; ++r) {
          sa[r] = QuantizeRow(a + (i + r) * k, k, qa.data() + r * ka);
        }
      }
      float* crow = c + i * n;
      switch (kernel) {
#if defined(TSFM_QUANT_VNNI)
        case QuantKernel::kAvx512Vnni:
          QuantizeRowsVnni(a + i * k, k, nr, ua.data(), ka, sa);
          if (nr == kRowBlock) {
            RowsVnni<kRowBlock>(ua.data(), ka, q, sa, bias, crow);
          } else {
            for (int r = 0; r < nr; ++r) {
              RowsVnni<1>(ua.data() + r * ka, ka, q, sa + r, bias,
                          crow + r * n);
            }
          }
          break;
#endif
#if defined(TSFM_QUANT_AVX2)
        case QuantKernel::kAvx2:
          for (size_t t = 0; t < qa.size(); ++t) a16[t] = qa[t];
          if (nr == kRowBlock) {
            RowsAvx2<kRowBlock>(a16.data(), ka, q, sa, bias, crow);
          } else {
            for (int r = 0; r < nr; ++r) {
              RowsAvx2<1>(a16.data() + r * ka, ka, q, sa + r, bias,
                          crow + r * n);
            }
          }
          break;
#endif
        default:
          RowsScalar(qa.data(), ka, nr, sa, q, bias, crow);
          break;
      }
    }
  });
}

}  // namespace tsfm::simd
