#ifndef TSFM_SIMD_DISPATCH_H_
#define TSFM_SIMD_DISPATCH_H_

// The numeric mode switch and CPU dispatch for the vectorized math /
// quantized inference paths. There are two numeric modes:
//
//   fp32 (default)                       -> every op in float32; exp/tanh/
//                                           GELU/sigmoid/softmax through the
//                                           simd_math.h kernels.
//   TSFM_QUANT=int8 / SetQuantMode(true) -> int8 dynamic-quantized matmul in
//                                           frozen (no-grad) Linear layers.
//
// The mode is a process-wide atomic initialized from the environment and
// togglable at runtime, with a scoped RAII override for tests and
// benchmarks. The AVX2 kernels are picked at runtime when the CPU has them;
// that is a speed choice, not a mode.
//
// Determinism contract: each mode is bit-identical across thread counts.
// The int8 matmul is exact integer arithmetic, so its results are also
// independent of the kernel choice (scalar, AVX2 or AVX-512 VNNI; see
// simd/quant.h).
namespace tsfm::simd {

/// True when the int8 quantized frozen-encoder path is enabled
/// (TSFM_QUANT=int8|1 or SetQuantMode(true)).
bool QuantModeEnabled();
void SetQuantMode(bool enabled);

/// True when the running CPU supports the AVX2+FMA code path compiled into
/// this binary. False on other architectures or when the translation unit
/// was not compiled with AVX2 support.
bool CpuHasAvx2();

/// Human-readable backend name for logs/reports: "avx2", "neon", or
/// "scalar".
const char* BackendName();

class ScopedQuantMode {
 public:
  explicit ScopedQuantMode(bool enabled) : prev_(QuantModeEnabled()) {
    SetQuantMode(enabled);
  }
  ~ScopedQuantMode() { SetQuantMode(prev_); }
  ScopedQuantMode(const ScopedQuantMode&) = delete;
  ScopedQuantMode& operator=(const ScopedQuantMode&) = delete;

 private:
  bool prev_;
};

}  // namespace tsfm::simd

#endif  // TSFM_SIMD_DISPATCH_H_
