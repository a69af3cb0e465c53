#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/corpus.h"
#include "data/dataset.h"
#include "data/uea_like.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

data::TimeSeriesDataset TinyDataset() {
  data::TimeSeriesDataset ds;
  ds.name = "tiny";
  ds.num_classes = 2;
  ds.x = Tensor(Shape{4, 3, 2}, {// sample 0
                                 1, 10, 2, 20, 3, 30,
                                 // sample 1
                                 2, 10, 3, 20, 4, 30,
                                 // sample 2
                                 0, 0, 0, 0, 0, 0,
                                 // sample 3
                                 5, 50, 5, 50, 5, 50});
  ds.y = {0, 1, 0, 1};
  return ds;
}

TEST(DatasetTest, ValidateAcceptsGoodAndRejectsBad) {
  data::TimeSeriesDataset ds = TinyDataset();
  EXPECT_TRUE(data::Validate(ds).ok());
  ds.y[0] = 7;
  EXPECT_FALSE(data::Validate(ds).ok());
  ds = TinyDataset();
  ds.y.pop_back();
  EXPECT_FALSE(data::Validate(ds).ok());
  ds = TinyDataset();
  ds.num_classes = 0;
  EXPECT_FALSE(data::Validate(ds).ok());
  ds = TinyDataset();
  ds.x = Tensor(Shape{4, 6});
  EXPECT_FALSE(data::Validate(ds).ok());
}

TEST(DatasetTest, ChannelStatsAndNormalize) {
  data::TimeSeriesDataset ds = TinyDataset();
  data::ChannelStats stats = data::ComputeChannelStats(ds);
  EXPECT_EQ(stats.mean.shape(), (Shape{2}));
  // Normalized data has ~zero mean / unit variance per channel.
  data::TimeSeriesDataset norm = data::NormalizeWith(ds, stats);
  data::ChannelStats after = data::ComputeChannelStats(norm);
  EXPECT_NEAR(after.mean[0], 0.0f, 1e-5f);
  EXPECT_NEAR(after.mean[1], 0.0f, 1e-5f);
  EXPECT_NEAR(after.std[0], 1.0f, 1e-4f);
  EXPECT_NEAR(after.std[1], 1.0f, 1e-4f);
}

TEST(DatasetTest, NormalizeHandlesConstantChannel) {
  data::TimeSeriesDataset ds = TinyDataset();
  // Make channel 1 constant.
  for (int64_t i = 0; i < ds.x.numel(); i += 2) {
    ds.x.mutable_data()[i + 1] = 3.0f;
  }
  data::ChannelStats stats = data::ComputeChannelStats(ds);
  data::TimeSeriesDataset norm = data::NormalizeWith(ds, stats);
  for (int64_t i = 0; i < norm.x.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(norm.x[i]));
  }
}

TEST(DatasetTest, SelectPreservesPairing) {
  data::TimeSeriesDataset ds = TinyDataset();
  data::TimeSeriesDataset sel = data::Select(ds, {3, 0});
  EXPECT_EQ(sel.size(), 2);
  EXPECT_EQ(sel.y[0], 1);
  EXPECT_EQ(sel.y[1], 0);
  EXPECT_EQ(sel.x.at({0, 0, 0}), 5.0f);
  EXPECT_EQ(sel.x.at({1, 0, 0}), 1.0f);
}

TEST(DatasetTest, MakeBatchesCoversAllIndices) {
  Rng rng(2);
  auto batches = data::MakeBatches(10, 3, &rng);
  EXPECT_EQ(batches.size(), 4u);  // 3+3+3+1
  std::set<int64_t> seen;
  for (const auto& b : batches) {
    for (int64_t i : b) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 10u);
  // Sequential when rng is null.
  auto seq = data::MakeBatches(5, 2, nullptr);
  EXPECT_EQ(seq[0], (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(seq[2], (std::vector<int64_t>{4}));
}

TEST(DatasetTest, ClassCountsAndAccuracy) {
  data::TimeSeriesDataset ds = TinyDataset();
  auto counts = data::ClassCounts(ds);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(data::Accuracy({0, 1, 0, 1}, ds), 1.0);
  EXPECT_EQ(data::Accuracy({1, 0, 1, 0}, ds), 0.0);
  EXPECT_EQ(data::Accuracy({0, 0, 0, 0}, ds), 0.5);
}

// ------------------------------ UEA specs ---------------------------------

TEST(UeaSpecTest, TwelveDatasetsMatchPaperTable3) {
  const auto& specs = data::UeaSpecs();
  ASSERT_EQ(specs.size(), 12u);
  auto duck = data::FindUeaSpec("DuckDuckGeese");
  ASSERT_TRUE(duck.ok());
  EXPECT_EQ(duck->train_size, 60);
  EXPECT_EQ(duck->test_size, 40);
  EXPECT_EQ(duck->channels, 1345);
  EXPECT_EQ(duck->length, 270);
  EXPECT_EQ(duck->classes, 5);
  auto insect = data::FindUeaSpec("Insect");  // by abbreviation
  ASSERT_TRUE(insect.ok());
  EXPECT_EQ(insect->train_size, 1000);  // paper's subsample
  EXPECT_EQ(insect->test_size, 1000);
  // Every dataset has >= 10 channels (the paper's selection criterion).
  for (const auto& s : specs) EXPECT_GE(s.channels, 10);
  EXPECT_FALSE(data::FindUeaSpec("NoSuchDataset").ok());
}

TEST(UeaGeneratorTest, ShapesMatchSpecUnderCaps) {
  auto spec = *data::FindUeaSpec("NATOPS");
  data::GeneratorCaps caps{50, 30, 40, 16};
  data::DatasetPair pair = data::GenerateUeaLike(spec, 1, caps);
  EXPECT_EQ(pair.train.size(), 50);
  EXPECT_EQ(pair.test.size(), 30);
  EXPECT_EQ(pair.train.length(), 40);
  EXPECT_EQ(pair.train.channels(), 16);
  EXPECT_EQ(pair.train.num_classes, 6);
  EXPECT_TRUE(data::Validate(pair.train).ok());
  EXPECT_TRUE(data::Validate(pair.test).ok());
}

TEST(UeaGeneratorTest, UncappedShapesMatchSpec) {
  auto spec = *data::FindUeaSpec("Vowels");  // smallest dataset
  data::DatasetPair pair =
      data::GenerateUeaLike(spec, 1, data::GeneratorCaps{});
  EXPECT_EQ(pair.train.size(), 270);
  EXPECT_EQ(pair.test.size(), 370);
  EXPECT_EQ(pair.train.channels(), 12);
  EXPECT_EQ(pair.train.length(), 29);
}

TEST(UeaGeneratorTest, DeterministicPerSeed) {
  auto spec = *data::FindUeaSpec("Finger");
  data::GeneratorCaps caps{20, 10, 20, 8};
  auto a = data::GenerateUeaLike(spec, 7, caps);
  auto b = data::GenerateUeaLike(spec, 7, caps);
  EXPECT_TRUE(AllClose(a.train.x, b.train.x));
  EXPECT_EQ(a.train.y, b.train.y);
  auto c = data::GenerateUeaLike(spec, 8, caps);
  EXPECT_GT(MaxAbsDiff(a.train.x, c.train.x), 1e-4f);
}

TEST(UeaGeneratorTest, AllClassesPresent) {
  auto spec = *data::FindUeaSpec("NATOPS");
  data::GeneratorCaps caps{120, 60, 30, 12};
  auto pair = data::GenerateUeaLike(spec, 3, caps);
  auto counts = data::ClassCounts(pair.train);
  for (int64_t c : counts) EXPECT_GT(c, 0);
}

TEST(UeaGeneratorTest, ChannelsAreCorrelated) {
  // The low-rank latent structure must induce strong cross-channel
  // correlation (this is the property PCA exploits).
  auto spec = *data::FindUeaSpec("Heart");
  data::GeneratorCaps caps{40, 10, 50, 32};
  auto pair = data::GenerateUeaLike(spec, 5, caps);
  Tensor flat = pair.train.x.Reshape({-1, 32});
  // Center columns.
  Tensor centered = Sub(flat, Mean(flat, 0, true));
  Tensor cov = Scale(MatMul(TransposeLast2(centered), centered),
                     1.0f / static_cast<float>(flat.dim(0)));
  // Count strongly correlated pairs.
  int strong = 0, total = 0;
  for (int64_t i = 0; i < 32; ++i) {
    for (int64_t j = i + 1; j < 32; ++j) {
      const float r = cov.at({i, j}) /
                      std::sqrt(cov.at({i, i}) * cov.at({j, j}) + 1e-12f);
      if (std::fabs(r) > 0.4f) ++strong;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(strong) / total, 0.2);
}

TEST(UeaGeneratorTest, ChannelVariancesAreHeterogeneous) {
  // VARiance-based selection needs channels with clearly different variances.
  auto spec = *data::FindUeaSpec("PEMS-SF");
  data::GeneratorCaps caps{30, 10, 40, 64};
  auto pair = data::GenerateUeaLike(spec, 2, caps);
  Tensor var = Variance(pair.train.x.Reshape({-1, 64}), 0);
  EXPECT_GT(MaxAll(var) / (MinAll(var) + 1e-9f), 3.0f);
}

TEST(UeaGeneratorTest, TrainTestFromSameProcess) {
  // A nearest-centroid rule fitted on train should beat chance on test,
  // i.e. the two splits share the class-conditional structure.
  auto spec = *data::FindUeaSpec("Vowels");
  data::GeneratorCaps caps{120, 80, 29, 12};
  auto pair = data::GenerateUeaLike(spec, 11, caps);
  const int64_t c = pair.train.num_classes;
  const int64_t feat = pair.train.length() * pair.train.channels();
  // Class centroids in flattened space.
  std::vector<std::vector<double>> centroids(
      static_cast<size_t>(c), std::vector<double>(static_cast<size_t>(feat)));
  std::vector<int64_t> counts(static_cast<size_t>(c), 0);
  Tensor train_flat = pair.train.x.Reshape({pair.train.size(), feat});
  for (int64_t i = 0; i < pair.train.size(); ++i) {
    const int64_t label = pair.train.y[static_cast<size_t>(i)];
    ++counts[static_cast<size_t>(label)];
    for (int64_t f = 0; f < feat; ++f) {
      centroids[static_cast<size_t>(label)][static_cast<size_t>(f)] +=
          train_flat.at({i, f});
    }
  }
  for (int64_t k = 0; k < c; ++k) {
    for (auto& v : centroids[static_cast<size_t>(k)]) {
      v /= std::max<int64_t>(1, counts[static_cast<size_t>(k)]);
    }
  }
  Tensor test_flat = pair.test.x.Reshape({pair.test.size(), feat});
  int64_t correct = 0;
  for (int64_t i = 0; i < pair.test.size(); ++i) {
    double best = 1e300;
    int64_t best_k = 0;
    for (int64_t k = 0; k < c; ++k) {
      double dist = 0;
      for (int64_t f = 0; f < feat; ++f) {
        const double d =
            test_flat.at({i, f}) -
            centroids[static_cast<size_t>(k)][static_cast<size_t>(f)];
        dist += d * d;
      }
      if (dist < best) {
        best = dist;
        best_k = k;
      }
    }
    if (best_k == pair.test.y[static_cast<size_t>(i)]) ++correct;
  }
  const double acc =
      static_cast<double>(correct) / static_cast<double>(pair.test.size());
  EXPECT_GT(acc, 1.5 / static_cast<double>(c)) << "accuracy " << acc;
}

// ------------------------------- Corpus ------------------------------------

TEST(CorpusTest, ShapeAndNormalization) {
  Tensor corpus = data::GeneratePretrainCorpus(50, 64, 1);
  ASSERT_EQ(corpus.shape(), (Shape{50, 64}));
  for (int64_t i = 0; i < 50; ++i) {
    double mean = 0, var = 0;
    for (int64_t t = 0; t < 64; ++t) mean += corpus.at({i, t});
    mean /= 64;
    for (int64_t t = 0; t < 64; ++t) {
      var += (corpus.at({i, t}) - mean) * (corpus.at({i, t}) - mean);
    }
    var /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-3);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(CorpusTest, Deterministic) {
  Tensor a = data::GeneratePretrainCorpus(10, 32, 42);
  Tensor b = data::GeneratePretrainCorpus(10, 32, 42);
  EXPECT_TRUE(AllClose(a, b));
  Tensor c = data::GeneratePretrainCorpus(10, 32, 43);
  EXPECT_GT(MaxAbsDiff(a, c), 1e-3f);
}

TEST(CorpusTest, AugmentViewPreservesShapeButPerturbs) {
  Tensor corpus = data::GeneratePretrainCorpus(8, 32, 3);
  Rng rng(4);
  Tensor view = data::AugmentView(corpus, &rng);
  EXPECT_EQ(view.shape(), corpus.shape());
  EXPECT_GT(MaxAbsDiff(view, corpus), 1e-3f);
  // Augmented view stays correlated with the source (same underlying shape).
  double dot = 0, na = 0, nb = 0;
  for (int64_t i = 0; i < corpus.numel(); ++i) {
    dot += static_cast<double>(corpus[i]) * view[i];
    na += static_cast<double>(corpus[i]) * corpus[i];
    nb += static_cast<double>(view[i]) * view[i];
  }
  EXPECT_GT(std::fabs(dot) / std::sqrt(na * nb), 0.2);
}

}  // namespace
}  // namespace tsfm
