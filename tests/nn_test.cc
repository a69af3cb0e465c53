#include <cmath>
#include <cstdio>
#include <cstring>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

using nn::ForwardContext;

ForwardContext EvalCtx() { return ForwardContext{false, nullptr}; }

TEST(LinearTest, ShapeAndBias) {
  Rng rng(1);
  nn::Linear fc(3, 4, &rng);
  ag::Var x(Tensor::Ones({2, 3}), false);
  ag::Var y = fc.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 4}));
  EXPECT_EQ(fc.NumParameters(), 3 * 4 + 4);
}

TEST(LinearTest, NoBias) {
  Rng rng(2);
  nn::Linear fc(3, 4, &rng, /*use_bias=*/false);
  EXPECT_EQ(fc.NumParameters(), 12);
  ag::Var y = fc.Forward(ag::Var(Tensor::Zeros({2, 3}), false));
  EXPECT_NEAR(MaxAll(Abs(y.value())), 0.0f, 1e-7f);
}

TEST(LinearTest, AppliesOverLastAxisOf3d) {
  Rng rng(3);
  nn::Linear fc(3, 2, &rng);
  Tensor x = Tensor::RandN({4, 5, 3}, &rng);
  ag::Var y = fc.Forward(ag::Var(x, false));
  EXPECT_EQ(y.shape(), (Shape{4, 5, 2}));
  Tensor row = Slice(Slice(x, 0, 2, 3), 1, 3, 4).Reshape({1, 3});
  ag::Var yr = fc.Forward(ag::Var(row, false));
  EXPECT_NEAR(y.value().at({2, 3, 0}), yr.value().at({0, 0}), 1e-5f);
}

TEST(LinearTest, Handles1dInput) {
  Rng rng(31);
  nn::Linear fc(3, 2, &rng);
  ag::Var y = fc.Forward(ag::Var(Tensor::Ones({3}), false));
  EXPECT_EQ(y.shape(), (Shape{2}));
}

TEST(LinearTest, GradientsFlowToParameters) {
  Rng rng(4);
  nn::Linear fc(2, 2, &rng);
  ag::Var x(Tensor::Ones({1, 2}), false);
  ag::Var loss = ag::SumAll(ag::Square(fc.Forward(x)));
  loss.Backward();
  bool any_nonzero = false;
  for (auto& p : fc.Parameters()) {
    if (Norm(p.grad()) > 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(LayerNormTest, NormalizesLastAxis) {
  nn::LayerNorm ln(8);
  Rng rng(5);
  Tensor x = Tensor::RandN({3, 8}, &rng, 5.0f);
  Tensor y = ln.Forward(ag::Var(x, false)).value();
  for (int64_t i = 0; i < 3; ++i) {
    double mean = 0, var = 0;
    for (int64_t j = 0; j < 8; ++j) mean += y.at({i, j});
    mean /= 8;
    for (int64_t j = 0; j < 8; ++j) {
      var += (y.at({i, j}) - mean) * (y.at({i, j}) - mean);
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

// Bit-for-bit equality of two tensors (NaN-safe, -0.0 vs 0.0 distinct).
bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(LayerNormTest, InferenceKernelMatchesComposedOpsBitForBit) {
  // Without a tape, LayerNorm runs the one-pass kernel; with one, the
  // composed ops the backward needs. Both must give the same bits.
  Rng rng(11);
  for (int64_t len : {8, 37, 64}) {
    nn::LayerNorm ln(len);
    for (auto& p : ln.Parameters()) {
      p.SetValue(Tensor::RandN(p.shape(), &rng));
    }
    Tensor x = Tensor::RandN({3, 5, len}, &rng, 4.0f);
    const Tensor composed = ln.Forward(ag::Var(x, true)).value();
    Tensor fused;
    {
      ag::NoGradGuard guard;
      fused = ln.Forward(ag::Var(x, true)).value();
    }
    EXPECT_TRUE(SameBits(composed, fused)) << "len=" << len;
  }
}

TEST(AttentionTest, InferenceKernelMatchesComposedOpsBitForBit) {
  // The fused inference kernel must reproduce the split-heads / MatMul /
  // Scale / Softmax / MatMul / merge composition exactly, including head
  // widths and sequence lengths that are not multiples of its tiles.
  struct Case { int64_t d_model, heads, seq; };
  const Case cases[] = {{64, 4, 8}, {48, 4, 15}, {16, 2, 3}, {24, 3, 9}};
  Rng rng(12);
  for (const Case& c : cases) {
    nn::MultiHeadSelfAttention attn(c.d_model, c.heads, 0.1f, &rng);
    Tensor x = Tensor::RandN({3, c.seq, c.d_model}, &rng);
    const Tensor composed = attn.Forward(ag::Var(x, true), EvalCtx()).value();
    Tensor fused;
    {
      ag::NoGradGuard guard;
      fused = attn.Forward(ag::Var(x, false), EvalCtx()).value();
    }
    EXPECT_TRUE(SameBits(composed, fused))
        << "d_model=" << c.d_model << " seq=" << c.seq
        << " max diff " << MaxAbsDiff(composed, fused);
  }
}

TEST(FeedForwardTest, ShapePreserved) {
  Rng rng(6);
  nn::FeedForward ff(8, 16, 0.0f, &rng);
  Tensor x = Tensor::RandN({2, 5, 8}, &rng);
  ag::Var y = ff.Forward(ag::Var(x, false), EvalCtx());
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(AttentionTest, ShapePreservedAndDifferentiable) {
  Rng rng(7);
  nn::MultiHeadSelfAttention attn(8, 2, 0.0f, &rng);
  Tensor x = Tensor::RandN({2, 5, 8}, &rng);
  ag::Var xv(x, true);
  ag::Var y = attn.Forward(xv, EvalCtx());
  EXPECT_EQ(y.shape(), x.shape());
  ag::SumAll(ag::Square(y)).Backward();
  EXPECT_GT(Norm(xv.grad()), 0.0f);
}

TEST(AttentionTest, BatchItemsIndependent) {
  Rng rng(8);
  nn::MultiHeadSelfAttention attn(8, 2, 0.0f, &rng);
  Tensor x = Tensor::RandN({2, 4, 8}, &rng);
  Tensor y_joint = attn.Forward(ag::Var(x, false), EvalCtx()).value();
  Tensor x0 = Slice(x, 0, 0, 1);
  Tensor y0 = attn.Forward(ag::Var(x0, false), EvalCtx()).value();
  EXPECT_LT(MaxAbsDiff(Slice(y_joint, 0, 0, 1), y0), 1e-4f);
}

TEST(AttentionDeathTest, RequiresDivisibleHeads) {
  Rng rng(9);
  EXPECT_DEATH(nn::MultiHeadSelfAttention(10, 3, 0.0f, &rng), "divisible");
}

TEST(TransformerTest, EncoderLayerShape) {
  Rng rng(10);
  nn::TransformerEncoderLayer layer(8, 2, 16, 0.0f, &rng);
  Tensor x = Tensor::RandN({2, 6, 8}, &rng);
  EXPECT_EQ(layer.Forward(ag::Var(x, false), EvalCtx()).shape(), x.shape());
}

TEST(TransformerTest, StackedEncoder) {
  Rng rng(11);
  nn::TransformerEncoder enc(3, 8, 2, 16, 0.0f, &rng);
  Tensor x = Tensor::RandN({2, 6, 8}, &rng);
  ag::Var y = enc.Forward(ag::Var(x, false), EvalCtx());
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_GT(enc.NumParameters(), 3 * (4 * 8 * 8));
}

TEST(TransformerTest, DropoutOnlyInTraining) {
  Rng rng(12);
  nn::TransformerEncoder enc(1, 8, 2, 16, 0.5f, &rng);
  Tensor x = Tensor::RandN({1, 4, 8}, &rng);
  Tensor y1 = enc.Forward(ag::Var(x, false), EvalCtx()).value();
  Tensor y2 = enc.Forward(ag::Var(x, false), EvalCtx()).value();
  EXPECT_TRUE(AllClose(y1, y2));
  Rng d1(1), d2(2);
  Tensor t1 = enc.Forward(ag::Var(x, false), {true, &d1}).value();
  Tensor t2 = enc.Forward(ag::Var(x, false), {true, &d2}).value();
  EXPECT_GT(MaxAbsDiff(t1, t2), 1e-6f);
}

TEST(PositionalEncodingTest, AddsDistinctPositions) {
  nn::PositionalEncoding pe(32, 8);
  Tensor x = Tensor::Zeros({1, 5, 8});
  Tensor y = pe.Forward(ag::Var(x, false)).value();
  Tensor p0 = Slice(y, 1, 0, 1);
  Tensor p1 = Slice(y, 1, 1, 2);
  EXPECT_GT(MaxAbsDiff(p0, p1), 1e-3f);
  EXPECT_LE(MaxAll(Abs(y)), 1.0f + 1e-5f);
}

TEST(PositionalEncodingDeathTest, RejectsTooLongSequence) {
  nn::PositionalEncoding pe(4, 8);
  Tensor x = Tensor::Zeros({1, 5, 8});
  EXPECT_DEATH(pe.Forward(ag::Var(x, false)), "max_len");
}

TEST(ModuleTest, NamedParametersArePathQualified) {
  Rng rng(13);
  nn::TransformerEncoderLayer layer(8, 2, 16, 0.0f, &rng);
  bool found_attn_weight = false;
  for (const auto& [name, p] : layer.NamedParameters()) {
    if (name == "attn/wq/weight") found_attn_weight = true;
  }
  EXPECT_TRUE(found_attn_weight);
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(14);
  nn::Linear fc(2, 2, &rng);
  ag::Var x(Tensor::Ones({1, 2}), false);
  ag::SumAll(ag::Square(fc.Forward(x))).Backward();
  fc.ZeroGrad();
  for (auto& p : fc.Parameters()) EXPECT_EQ(Norm(p.grad()), 0.0f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(15);
  nn::TransformerEncoder enc(2, 8, 2, 16, 0.0f, &rng);
  const std::string path = ::testing::TempDir() + "/enc.ckpt";
  ASSERT_TRUE(nn::SaveCheckpoint(enc, path).ok());

  Rng rng2(999);
  nn::TransformerEncoder enc2(2, 8, 2, 16, 0.0f, &rng2);
  Tensor x = Tensor::RandN({1, 4, 8}, &rng);
  Tensor before = enc2.Forward(ag::Var(x, false), EvalCtx()).value();
  ASSERT_TRUE(nn::LoadCheckpoint(&enc2, path).ok());
  Tensor after = enc2.Forward(ag::Var(x, false), EvalCtx()).value();
  Tensor reference = enc.Forward(ag::Var(x, false), EvalCtx()).value();
  EXPECT_GT(MaxAbsDiff(before, reference), 1e-5f);
  EXPECT_LT(MaxAbsDiff(after, reference), 1e-6f);
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsMismatchedArchitecture) {
  Rng rng(16);
  nn::Linear small(2, 2, &rng);
  nn::Linear big(4, 4, &rng);
  const std::string path = ::testing::TempDir() + "/mismatch.ckpt";
  ASSERT_TRUE(nn::SaveCheckpoint(small, path).ok());
  EXPECT_FALSE(nn::LoadCheckpoint(&big, path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsMissingFileAndBadMagic) {
  Rng rng(17);
  nn::Linear fc(2, 2, &rng);
  EXPECT_FALSE(nn::LoadCheckpoint(&fc, "/nonexistent/path.ckpt").ok());
  const std::string path = ::testing::TempDir() + "/garbage.ckpt";
  {
    FILE* f = fopen(path.c_str(), "wb");
    fputs("not a checkpoint", f);
    fclose(f);
  }
  EXPECT_FALSE(nn::LoadCheckpoint(&fc, path).ok());
  std::remove(path.c_str());
}

TEST(GlorotTest, LimitScalesWithFans) {
  Rng rng(18);
  Tensor w = nn::GlorotUniform(100, 100, &rng);
  const float limit = std::sqrt(6.0f / 200.0f);
  EXPECT_LE(MaxAll(Abs(w)), limit + 1e-6f);
  EXPECT_GT(MaxAll(Abs(w)), limit * 0.8f);
}

}  // namespace
}  // namespace tsfm
