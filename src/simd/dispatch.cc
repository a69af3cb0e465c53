#include "simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace tsfm::simd {
namespace {

bool EnvQuant(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  return std::strcmp(env, "int8") == 0 || std::strcmp(env, "1") == 0;
}

std::atomic<bool> g_quant_mode{EnvQuant("TSFM_QUANT")};

bool DetectAvx2() {
#if defined(__AVX2__) && defined(__FMA__) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

bool QuantModeEnabled() {
  return g_quant_mode.load(std::memory_order_relaxed);
}

void SetQuantMode(bool enabled) {
  g_quant_mode.store(enabled, std::memory_order_relaxed);
}

bool CpuHasAvx2() {
  // cpuid probes are not cheap enough for inner loops; cache the answer.
  static const bool has = DetectAvx2();
  return has;
}

const char* BackendName() {
  if (CpuHasAvx2()) return "avx2";
#if defined(__aarch64__) && defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace tsfm::simd
