// Ablation micro-benchmark: foundation-model encoding cost as a function of
// the channel count D. Univariate TSFMs process each channel independently,
// so cost grows linearly in D — the bottleneck the paper's adapters remove by
// reducing D to D' = 5 up front. Also the fp32-vs-int8 encoder-forward pair
// that carries the quantization gate in tools/bench_compare.py.

#include <benchmark/benchmark.h>

#include "models/moment.h"
#include "models/vit.h"
#include "simd/dispatch.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

void BM_MomentEncodeVsChannels(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(1);
  models::MomentModel model(models::MomentTestConfig(), &rng);
  Tensor x = Tensor::RandN({4, 32, d}, &rng);
  nn::ForwardContext ctx{false, nullptr};
  for (auto _ : state) {
    ag::NoGradGuard guard;
    ag::Var emb = model.EncodeChannels(ag::Constant(x), ctx);
    benchmark::DoNotOptimize(emb.value().data());
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_MomentEncodeVsChannels)->Arg(5)->Arg(20)->Arg(80);

void BM_VitEncodeVsChannels(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(2);
  models::VitModel model(models::VitTestConfig(), &rng);
  Tensor x = Tensor::RandN({4, 32, d}, &rng);
  nn::ForwardContext ctx{false, nullptr};
  for (auto _ : state) {
    ag::NoGradGuard guard;
    ag::Var emb = model.EncodeChannels(ag::Constant(x), ctx);
    benchmark::DoNotOptimize(emb.value().data());
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_VitEncodeVsChannels)->Arg(5)->Arg(20)->Arg(80);

void BM_MomentTrainingStepVsChannels(benchmark::State& state) {
  // Forward + backward (the lcomb / full-FT inner loop cost).
  const int64_t d = state.range(0);
  Rng rng(3);
  models::MomentModel model(models::MomentTestConfig(), &rng);
  Tensor x = Tensor::RandN({4, 32, d}, &rng);
  nn::ForwardContext ctx{false, nullptr};
  for (auto _ : state) {
    ag::Var input(x, /*requires_grad=*/true);
    ag::Var emb = model.EncodeChannels(input, ctx);
    ag::Var loss = ag::SumAll(ag::Square(emb));
    loss.Backward();
    model.ZeroGrad();
    benchmark::DoNotOptimize(input.grad());
  }
}
BENCHMARK(BM_MomentTrainingStepVsChannels)->Arg(5)->Arg(20);

void BM_NoGradSavesMemoryAndTime(benchmark::State& state) {
  // Encode with tape recording enabled (parameters require grad) — compare
  // against BM_MomentEncodeVsChannels to see the NoGradGuard win.
  Rng rng(4);
  models::MomentModel model(models::MomentTestConfig(), &rng);
  Tensor x = Tensor::RandN({4, 32, 20}, &rng);
  nn::ForwardContext ctx{false, nullptr};
  for (auto _ : state) {
    ag::Var emb = model.EncodeChannels(ag::Constant(x), ctx);  // tape built
    benchmark::DoNotOptimize(emb.value().data());
  }
}
BENCHMARK(BM_NoGradSavesMemoryAndTime);

// Quantized-inference pair: the same frozen encoder forward at bench scale
// (MomentSmallConfig, d_model 64 / d_hidden 128 — the test config's d=16
// matmuls are too small for quantization to pay for its per-row activation
// pass) in fp32 against int8. The paired CI gate requires
// BM_EncoderForwardInt8 <= 0.67x BM_EncoderForwardFp32 (>= 1.5x speedup).
constexpr int64_t kQuantBatch = 4;
constexpr int64_t kQuantSteps = 64;
constexpr int64_t kQuantChannels = 8;

void EncoderForwardPair(benchmark::State& state, bool int8) {
  Rng rng(3);
  models::MomentModel model(models::MomentSmallConfig(), &rng);
  Tensor x = Tensor::RandN({kQuantBatch, kQuantSteps, kQuantChannels}, &rng);
  nn::ForwardContext ctx{false, nullptr};
  simd::ScopedQuantMode quant(int8);
  ag::NoGradGuard guard;
  if (int8) model.PrepareQuantized();  // scales computed once, as at load
  for (auto _ : state) {
    ag::Var emb = model.EncodeChannels(ag::Constant(x), ctx);
    benchmark::DoNotOptimize(emb.value().data());
  }
}

void BM_EncoderForwardFp32(benchmark::State& state) {
  EncoderForwardPair(state, /*int8=*/false);
}
BENCHMARK(BM_EncoderForwardFp32);

void BM_EncoderForwardInt8(benchmark::State& state) {
  EncoderForwardPair(state, /*int8=*/true);
}
BENCHMARK(BM_EncoderForwardInt8);

}  // namespace
}  // namespace tsfm

BENCHMARK_MAIN();
