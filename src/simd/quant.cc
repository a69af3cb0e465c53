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
#endif

namespace tsfm::simd {
namespace {

constexpr int64_t kMaxQuantK = 1 << 16;  // int32 accumulator exactness bound

inline int8_t QuantizeValue(float v, float scale) {
  const float q = std::nearbyint(v / scale);
  const float c = std::min(127.0f, std::max(-127.0f, q));
  return static_cast<int8_t>(c);
}

#if defined(TSFM_QUANT_AVX2)

// One output row from column j0 on: crow[j] = float(acc_j) * sa * scales[j]
// for 8/16 columns at a time. a16 is the row's int8 activations widened to
// int16 and zero-padded to 2*kp entries.
void QuantRowAvx2(const int16_t* a16, const QuantizedMatrix& q, float sa,
                  float* crow, int64_t j0) {
  const int64_t n = q.cols;
  const int64_t kp = (q.rows + 1) / 2;
  const int16_t* packed = q.packed.data();
  const __m256 sav = _mm256_set1_ps(sa);
  int64_t j = j0;
  for (; j + 16 <= n; j += 16) {
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    for (int64_t kk = 0; kk < kp; ++kk) {
      int32_t pair;
      std::memcpy(&pair, a16 + 2 * kk, sizeof(pair));
      const __m256i av = _mm256_set1_epi32(pair);
      const int16_t* bp = packed + kk * n * 2 + j * 2;
      const __m256i b0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
      const __m256i b1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16));
      acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(av, b0));
      acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(av, b1));
    }
    const __m256 f0 = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_cvtepi32_ps(acc0), sav),
        _mm256_loadu_ps(q.scales.data() + j));
    const __m256 f1 = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_cvtepi32_ps(acc1), sav),
        _mm256_loadu_ps(q.scales.data() + j + 8));
    _mm256_storeu_ps(crow + j, f0);
    _mm256_storeu_ps(crow + j + 8, f1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256i acc = _mm256_setzero_si256();
    for (int64_t kk = 0; kk < kp; ++kk) {
      int32_t pair;
      std::memcpy(&pair, a16 + 2 * kk, sizeof(pair));
      const __m256i av = _mm256_set1_epi32(pair);
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(packed + kk * n * 2 + j * 2));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, b));
    }
    const __m256 f = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_cvtepi32_ps(acc), sav),
        _mm256_loadu_ps(q.scales.data() + j));
    _mm256_storeu_ps(crow + j, f);
  }
  for (; j < n; ++j) {
    int32_t acc = 0;
    for (int64_t kk = 0; kk < kp; ++kk) {
      const int16_t* bp = packed + kk * n * 2 + j * 2;
      acc += static_cast<int32_t>(a16[2 * kk]) * bp[0] +
             static_cast<int32_t>(a16[2 * kk + 1]) * bp[1];
    }
    crow[j] = (static_cast<float>(acc) * sa) * q.scales[j];
  }
}

// Four output rows at once: each weight load is reused across four
// activation rows, which is what makes the int8 path beat the fp32 GEMM —
// one row at a time the kernel is weight-bandwidth-bound and loses.
// `a16` holds 4 widened rows at `stride` int16 apart; results land in
// c + r * ldc. Returns the first column not covered (the caller finishes
// the <16-wide tail per row with QuantRowAvx2). The integer accumulation is
// exact, so blocking rows this way cannot change any output bit.
int64_t Quant4RowsAvx2(const int16_t* a16, int64_t stride,
                       const QuantizedMatrix& q, const float* sa, float* c,
                       int64_t ldc) {
  const int64_t n = q.cols;
  const int64_t kp = (q.rows + 1) / 2;
  const int16_t* packed = q.packed.data();
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256i acc[8];
    for (auto& r : acc) r = _mm256_setzero_si256();
    for (int64_t kk = 0; kk < kp; ++kk) {
      const int16_t* bp = packed + kk * n * 2 + j * 2;
      const __m256i b0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
      const __m256i b1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16));
      for (int r = 0; r < 4; ++r) {
        int32_t pair;
        std::memcpy(&pair, a16 + r * stride + 2 * kk, sizeof(pair));
        const __m256i av = _mm256_set1_epi32(pair);
        acc[2 * r] = _mm256_add_epi32(acc[2 * r], _mm256_madd_epi16(av, b0));
        acc[2 * r + 1] =
            _mm256_add_epi32(acc[2 * r + 1], _mm256_madd_epi16(av, b1));
      }
    }
    const __m256 s0 = _mm256_loadu_ps(q.scales.data() + j);
    const __m256 s1 = _mm256_loadu_ps(q.scales.data() + j + 8);
    for (int r = 0; r < 4; ++r) {
      const __m256 sav = _mm256_set1_ps(sa[r]);
      _mm256_storeu_ps(
          c + r * ldc + j,
          _mm256_mul_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(acc[2 * r]), sav),
                        s0));
      _mm256_storeu_ps(
          c + r * ldc + j + 8,
          _mm256_mul_ps(
              _mm256_mul_ps(_mm256_cvtepi32_ps(acc[2 * r + 1]), sav), s1));
    }
  }
  return j;
}

#endif  // TSFM_QUANT_AVX2

// Reference kernel: exact same integer sums (order-independent), same
// dequant expression shape as the vector kernel.
void QuantRowScalar(const int16_t* a16, const QuantizedMatrix& q, float sa,
                    float* crow) {
  const int64_t n = q.cols;
  const int64_t kp = (q.rows + 1) / 2;
  const int16_t* packed = q.packed.data();
  for (int64_t j = 0; j < n; ++j) {
    int32_t acc = 0;
    for (int64_t kk = 0; kk < kp; ++kk) {
      const int16_t* bp = packed + kk * n * 2 + j * 2;
      acc += static_cast<int32_t>(a16[2 * kk]) * bp[0] +
             static_cast<int32_t>(a16[2 * kk + 1]) * bp[1];
    }
    crow[j] = (static_cast<float>(acc) * sa) * q.scales[j];
  }
}

}  // namespace

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
  const int64_t kp = (rows + 1) / 2;
  q->packed.assign(static_cast<size_t>(kp * cols * 2), 0);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      q->packed[static_cast<size_t>((i / 2) * cols * 2 + j * 2 + (i & 1))] =
          static_cast<int16_t>(q->data[static_cast<size_t>(i * cols + j)]);
    }
  }
}

void QuantMatMul(const float* a, int64_t m, const QuantizedMatrix& q,
                 float* c) {
  const int64_t k = q.rows, n = q.cols;
  TSFM_CHECK(!q.packed.empty()) << "QuantMatMul: matrix not packed";
  // Same work counters as the fp32 MatMul, so int8 layers show up in
  // tensor.matmul_flops: one relaxed add each per call.
  static obs::Counter* const calls =
      obs::Registry::Instance().GetCounter("tensor.matmul_calls");
  static obs::Counter* const flops =
      obs::Registry::Instance().GetCounter("tensor.matmul_flops");
  calls->Add(1);
  flops->Add(static_cast<uint64_t>(2 * m * k * n));
  const int64_t kp = (k + 1) / 2;
  // Chunk size depends only on the shape, never on the thread count, so the
  // row partition (and with it every output bit) is thread-count invariant.
  const int64_t grain =
      std::max<int64_t>(1, (1 << 20) / std::max<int64_t>(1, k * n));
  const int64_t stride = 2 * kp;
  runtime::ParallelFor(0, m, grain, [&](int64_t r0, int64_t r1) {
    // Scratch for up to 4 quantized rows (the register-blocked kernel's
    // height); zero-padded so the odd-k pair slot always multiplies by 0.
    std::vector<int16_t> a16(static_cast<size_t>(4 * stride), 0);
    float sa[4];
    const auto quantize_row = [&](int64_t i, int slot) {
      const float* arow = a + i * k;
      float maxabs = 0.0f;
      for (int64_t t = 0; t < k; ++t) {
        maxabs = std::max(maxabs, std::fabs(arow[t]));
      }
      const float s = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
      sa[slot] = s;
      int16_t* dst = a16.data() + slot * stride;
      for (int64_t t = 0; t < k; ++t) {
        dst[t] = static_cast<int16_t>(QuantizeValue(arow[t], s));
      }
      if (k & 1) dst[k] = 0;
    };
    int64_t i = r0;
#if defined(TSFM_QUANT_AVX2)
    if (CpuHasAvx2()) {
      for (; i + 4 <= r1; i += 4) {
        for (int r = 0; r < 4; ++r) quantize_row(i + r, r);
        const int64_t done =
            Quant4RowsAvx2(a16.data(), stride, q, sa, c + i * n, n);
        if (done < n) {
          for (int r = 0; r < 4; ++r) {
            QuantRowAvx2(a16.data() + r * stride, q, sa[r],
                         c + (i + r) * n, done);
          }
        }
      }
      for (; i < r1; ++i) {
        quantize_row(i, 0);
        QuantRowAvx2(a16.data(), q, sa[0], c + i * n, 0);
      }
      return;
    }
#endif
    for (; i < r1; ++i) {
      quantize_row(i, 0);
      QuantRowScalar(a16.data(), q, sa[0], c + i * n);
    }
  });
}

}  // namespace tsfm::simd
