// Tests for the extension features beyond the paper's core experiments:
// the supervised LDA adapter and Friedman/Nemenyi rank statistics.

#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "core/lda_adapter.h"
#include "core/pca_adapter.h"
#include "data/dataset.h"
#include "stats/stats.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

// ------------------------------ LDA adapter --------------------------------

// Two classes separated along one specific channel direction, plus noise
// channels of much larger variance (so PCA would pick the noise, LDA the
// signal).
data::TimeSeriesDataset LdaFriendlyData(int64_t n, int64_t t, uint64_t seed) {
  Rng rng(seed);
  data::TimeSeriesDataset ds;
  ds.name = "lda_toy";
  ds.num_classes = 2;
  ds.x = Tensor(Shape{n, t, 6});
  ds.y.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = static_cast<int64_t>(rng.UniformInt(2));
    ds.y[static_cast<size_t>(i)] = c;
    for (int64_t s = 0; s < t; ++s) {
      // Channel 0: small-variance, class-separating.
      ds.x.at({i, s, 0}) = (c == 0 ? -1.0f : 1.0f) +
                           static_cast<float>(rng.Normal(0.0, 0.3));
      // Channels 1-5: large-variance noise, class-independent.
      for (int64_t d = 1; d < 6; ++d) {
        ds.x.at({i, s, d}) = static_cast<float>(rng.Normal(0.0, 5.0));
      }
    }
  }
  return ds;
}

TEST(LdaAdapterTest, FindsDiscriminativeDirection) {
  data::TimeSeriesDataset ds = LdaFriendlyData(40, 12, 1);
  core::AdapterOptions options;
  options.out_channels = 1;
  core::LdaAdapter lda(options);
  ASSERT_TRUE(lda.Fit(ds.x, ds.y).ok());
  // The single projection direction must load mostly on channel 0.
  const Tensor& w = lda.components();  // (6, 1)
  float signal = std::fabs(w.at({0, 0}));
  float noise = 0.0f;
  for (int64_t d = 1; d < 6; ++d) noise = std::max(noise, std::fabs(w.at({d, 0})));
  EXPECT_GT(signal, 3.0f * noise);
  // And the 1-D projection separates the classes.
  Tensor proj = *lda.Transform(ds.x);  // (N, T, 1)
  double mean0 = 0, mean1 = 0;
  int64_t n0 = 0, n1 = 0;
  for (int64_t i = 0; i < ds.size(); ++i) {
    double m = 0;
    for (int64_t s = 0; s < ds.length(); ++s) m += proj.at({i, s, 0});
    m /= ds.length();
    if (ds.y[static_cast<size_t>(i)] == 0) {
      mean0 += m;
      ++n0;
    } else {
      mean1 += m;
      ++n1;
    }
  }
  mean0 /= std::max<int64_t>(n0, 1);
  mean1 /= std::max<int64_t>(n1, 1);
  EXPECT_GT(std::fabs(mean0 - mean1), 1.0);
}

TEST(LdaAdapterTest, BeatsPcaOnAdversarialVarianceStructure) {
  // PCA's first component chases the high-variance noise channels; LDA's
  // stays on the discriminative one.
  data::TimeSeriesDataset ds = LdaFriendlyData(40, 12, 2);
  core::AdapterOptions options;
  options.out_channels = 1;
  core::PcaAdapter pca(options);
  ASSERT_TRUE(pca.Fit(ds.x, ds.y).ok());
  EXPECT_LT(std::fabs(pca.components().at({0, 0})), 0.5f);  // PCA on noise
}

TEST(LdaAdapterTest, HandlesMoreDimensionsThanClasses) {
  // 2 classes => rank(Sb) = 1; ask for 3 output channels anyway.
  data::TimeSeriesDataset ds = LdaFriendlyData(30, 8, 3);
  core::AdapterOptions options;
  options.out_channels = 3;
  core::LdaAdapter lda(options);
  ASSERT_TRUE(lda.Fit(ds.x, ds.y).ok());
  auto out = lda.Transform(ds.x);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{30, 8, 3}));
}

TEST(LdaAdapterTest, FactoryAndSerialization) {
  auto adapter = core::CreateAdapter(core::AdapterKind::kLda, {});
  ASSERT_NE(adapter, nullptr);
  EXPECT_EQ(adapter->name(), "LDA");
  EXPECT_EQ(adapter->kind(), core::AdapterKind::kLda);
  EXPECT_STREQ(core::AdapterKindName(core::AdapterKind::kLda), "LDA");

  data::TimeSeriesDataset ds = LdaFriendlyData(24, 8, 4);
  core::AdapterOptions options;
  options.out_channels = 2;
  core::LdaAdapter lda(options);
  ASSERT_TRUE(lda.Fit(ds.x, ds.y).ok());
  const std::string path = ::testing::TempDir() + "/lda.bin";
  ASSERT_TRUE(core::SaveAdapter(lda, options, path).ok());
  auto loaded = core::LoadAdapter(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(AllClose(*lda.Transform(ds.x), *(*loaded)->Transform(ds.x)));
  std::remove(path.c_str());
}

TEST(LdaAdapterTest, RejectsBadInputs) {
  data::TimeSeriesDataset ds = LdaFriendlyData(10, 8, 5);
  core::AdapterOptions options;
  options.out_channels = 10;  // > D
  core::LdaAdapter too_many(options);
  EXPECT_FALSE(too_many.Fit(ds.x, ds.y).ok());
  options.out_channels = 2;
  core::LdaAdapter lda(options);
  std::vector<int64_t> short_labels(3, 0);
  EXPECT_FALSE(lda.Fit(ds.x, short_labels).ok());
  EXPECT_FALSE(lda.Transform(ds.x).ok());  // not fitted
}

// -------------------------- Friedman / Nemenyi -----------------------------

TEST(GammaTest, KnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(stats::RegularizedLowerGamma(1.0, x), 1.0 - std::exp(-x),
                1e-10);
  }
  EXPECT_DOUBLE_EQ(stats::RegularizedLowerGamma(2.5, 0.0), 0.0);
}

TEST(ChiSquareTest, KnownQuantiles) {
  // Chi-square with 3 df: P(X > 7.815) = 0.05.
  EXPECT_NEAR(stats::ChiSquareUpperTailP(7.815, 3), 0.05, 1e-3);
  // 1 df: P(X > 3.841) = 0.05.
  EXPECT_NEAR(stats::ChiSquareUpperTailP(3.841, 1), 0.05, 1e-3);
  EXPECT_DOUBLE_EQ(stats::ChiSquareUpperTailP(0.0, 4), 1.0);
}

TEST(FriedmanTest, DetectsConsistentWinner) {
  // Method 0 always best across 10 datasets: strongly significant.
  std::vector<std::vector<double>> acc;
  for (int d = 0; d < 10; ++d) {
    acc.push_back({0.9, 0.7, 0.5});
  }
  auto r = stats::FriedmanTest(acc);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->p_value, 0.001);
  EXPECT_DOUBLE_EQ(r->average_ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(r->average_ranks[2], 3.0);
}

TEST(FriedmanTest, NoSignalGivesLargeP) {
  // Winners rotate evenly: no consistent ranking.
  std::vector<std::vector<double>> acc;
  for (int d = 0; d < 12; ++d) {
    std::vector<double> row{0.5, 0.5, 0.5};
    row[d % 3] = 0.9;
    acc.push_back(row);
  }
  auto r = stats::FriedmanTest(acc);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->p_value, 0.5);
}

TEST(FriedmanTest, RejectsDegenerateInput) {
  EXPECT_FALSE(stats::FriedmanTest({}).ok());
  EXPECT_FALSE(stats::FriedmanTest({{0.5, 0.6}}).ok());        // 1 dataset
  EXPECT_FALSE(stats::FriedmanTest({{0.5}, {0.6}}).ok());      // 1 method
  EXPECT_FALSE(stats::FriedmanTest({{0.5, 0.6}, {0.5}}).ok()); // ragged
}

TEST(NemenyiTest, MatchesDemsarTable) {
  // k=5 methods, N=12 datasets: CD = 2.728 * sqrt(5*6 / (6*12)) = 1.7608.
  auto cd = stats::NemenyiCriticalDifference(5, 12);
  ASSERT_TRUE(cd.ok());
  EXPECT_NEAR(*cd, 1.7608, 1e-3);
  // More datasets shrink the CD.
  auto cd_big = stats::NemenyiCriticalDifference(5, 100);
  EXPECT_LT(*cd_big, *cd);
  EXPECT_FALSE(stats::NemenyiCriticalDifference(11, 12).ok());
  EXPECT_FALSE(stats::NemenyiCriticalDifference(5, 1).ok());
}

}  // namespace
}  // namespace tsfm
