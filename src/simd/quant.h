#ifndef TSFM_SIMD_QUANT_H_
#define TSFM_SIMD_QUANT_H_

#include <cstdint>
#include <vector>

// Int8 dynamic quantization for frozen (no-grad) inference.
//
// Scheme: symmetric per-output-channel weight scales computed once
// (checkpoint load or first frozen forward), symmetric per-row dynamic
// activation scales computed on the fly, int8 x int8 -> int32 exact integer
// accumulation, dequantize (and add the bias) at the layer boundary:
//
//   C[i][j] = float(sum_k qa[i][k] * qw[k][j]) * sa_i * sw_j  (+ bias[j])
//
// Because the accumulation is exact integer arithmetic, the result is
// independent of summation order: bit-identical across thread counts AND
// across kernels, a strictly stronger determinism guarantee than the fp32
// path needs. Three kernels share that contract:
//
//   * scalar: reads the row-major int8 weights directly; the reference.
//   * AVX2: widens int8 to int16 and uses _mm256_madd_epi16 against a
//     k-pair-interleaved int16 copy of the weights ([ceil(k/2)][n][2]).
//   * AVX-512 VNNI: _mm512_dpbusd_epi32 (u8 x s8, 64 multiply-adds per
//     instruction) against a k-quad-interleaved int8 copy ([ceil(k/4)][n][4]).
//     The activations are offset to u8 (q + 128) and the offset is removed
//     exactly with precomputed 128 * column sums.
//
// |q| <= 127 keeps every partial sum below k * 255 * 127, so int32
// accumulators are exact for k up to 2^16 (checked).
namespace tsfm::simd {

struct QuantizedMatrix {
  int64_t rows = 0;  // k: input features
  int64_t cols = 0;  // n: output features
  std::vector<int8_t> data;    // row-major (rows, cols), values in [-127,127]
  std::vector<float> scales;   // per-column dequant scale, size cols
  // Kernel-ready copies built by PackQuantized for the kernels this CPU
  // runs; not serialized.
  bool packed = false;
  std::vector<int16_t> pairs16;   // AVX2: [ceil(rows/2)][cols][2], 0-padded
  std::vector<int8_t> quads8;     // VNNI: [ceil(rows/4)][cols][4], 0-padded
  std::vector<int32_t> colsum128; // VNNI: 128 * sum_k data[k][j]
};

/// The int8 matmul kernels. kAuto picks the fastest one the CPU runs.
enum class QuantKernel { kAuto, kScalar, kAvx2, kAvx512Vnni };

/// True when `kernel` is compiled into this binary and the CPU runs it.
bool QuantKernelAvailable(QuantKernel kernel);

/// Quantizes a row-major (rows, cols) fp32 weight matrix with per-column
/// symmetric scales (round-to-nearest-even, clamped to [-127, 127];
/// all-zero columns get scale 1). The result is packed and kernel-ready.
QuantizedMatrix QuantizeWeight(const float* w, int64_t rows, int64_t cols);

/// (Re)builds the kernel layouts from `data`. Call after filling
/// data/scales by hand (e.g. when loading a quantized checkpoint).
void PackQuantized(QuantizedMatrix* q);

/// C(m, q.cols) = A(m, q.rows) x dequant(q) + bias. A row-major, C
/// row-major; `bias` (size q.cols) may be null. Per-row activation scales
/// are derived dynamically from A. Deterministic at any thread count;
/// bit-identical across kernels.
void QuantMatMul(const float* a, int64_t m, const QuantizedMatrix& q,
                 const float* bias, float* c,
                 QuantKernel kernel = QuantKernel::kAuto);

}  // namespace tsfm::simd

#endif  // TSFM_SIMD_QUANT_H_
