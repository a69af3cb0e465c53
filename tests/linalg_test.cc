#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/linalg.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

Tensor RandomSymmetricPsd(int64_t d, Rng* rng) {
  Tensor a = Tensor::RandN({d, d}, rng);
  return Scale(MatMul(TransposeLast2(a), a), 1.0f / static_cast<float>(d));
}

TEST(ColumnStatsTest, MeansAndStds) {
  Tensor x(Shape{4, 2}, {1, 10, 2, 10, 3, 10, 4, 10});
  Tensor mu = ColumnMeans(x);
  EXPECT_NEAR(mu[0], 2.5f, 1e-6f);
  EXPECT_NEAR(mu[1], 10.0f, 1e-6f);
  Tensor sd = ColumnStds(x);
  EXPECT_NEAR(sd[0], std::sqrt(1.25f), 1e-5f);
  EXPECT_GE(sd[1], 1e-8f);  // clamped, not zero
}

TEST(CovarianceTest, CenteredKnownValue) {
  // Two perfectly correlated columns.
  Tensor x(Shape{3, 2}, {1, 2, 2, 4, 3, 6});
  Tensor cov = Covariance(x);
  const float var0 = 2.0f / 3.0f;
  EXPECT_NEAR(cov.at({0, 0}), var0, 1e-5f);
  EXPECT_NEAR(cov.at({0, 1}), 2 * var0, 1e-5f);
  EXPECT_NEAR(cov.at({1, 1}), 4 * var0, 1e-5f);
  EXPECT_NEAR(cov.at({0, 1}), cov.at({1, 0}), 1e-6f);
}

TEST(CovarianceTest, UncenteredIsSecondMoment) {
  Tensor x(Shape{2, 1}, {1, 3});
  Tensor m = Covariance(x, /*center=*/false);
  EXPECT_NEAR(m.at({0, 0}), 5.0f, 1e-5f);  // (1 + 9) / 2
}

TEST(SymmetricEigenTest, DiagonalMatrix) {
  Tensor a(Shape{3, 3});
  a.at({0, 0}) = 1.0f;
  a.at({1, 1}) = 5.0f;
  a.at({2, 2}) = 3.0f;
  auto r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(r->eigenvalues[0], 5.0f, 1e-5f);
  EXPECT_NEAR(r->eigenvalues[1], 3.0f, 1e-5f);
  EXPECT_NEAR(r->eigenvalues[2], 1.0f, 1e-5f);
  // Leading eigenvector is e_1.
  EXPECT_NEAR(std::fabs(r->eigenvectors.at({1, 0})), 1.0f, 1e-5f);
}

TEST(SymmetricEigenTest, Known2x2) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  Tensor a(Shape{2, 2}, {2, 1, 1, 2});
  auto r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->eigenvalues[0], 3.0f, 1e-5f);
  EXPECT_NEAR(r->eigenvalues[1], 1.0f, 1e-5f);
}

TEST(SymmetricEigenTest, EigenEquationHolds) {
  Rng rng(11);
  Tensor a = RandomSymmetricPsd(12, &rng);
  auto r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok());
  Tensor av = MatMul(a, r->eigenvectors);
  // A V == V diag(lambda)
  for (int64_t j = 0; j < 12; ++j) {
    for (int64_t i = 0; i < 12; ++i) {
      EXPECT_NEAR(av.at({i, j}),
                  r->eigenvalues[j] * r->eigenvectors.at({i, j}), 2e-4f);
    }
  }
}

TEST(SymmetricEigenTest, EigenvectorsOrthonormal) {
  Rng rng(13);
  Tensor a = RandomSymmetricPsd(10, &rng);
  auto r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok());
  Tensor vtv = MatMul(TransposeLast2(r->eigenvectors), r->eigenvectors);
  EXPECT_LT(MaxAbsDiff(vtv, Tensor::Eye(10)), 1e-4f);
}

TEST(SymmetricEigenTest, EigenvaluesSortedDescending) {
  Rng rng(17);
  Tensor a = RandomSymmetricPsd(8, &rng);
  auto r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok());
  for (int64_t i = 1; i < 8; ++i) {
    EXPECT_GE(r->eigenvalues[i - 1], r->eigenvalues[i] - 1e-6f);
  }
}

TEST(SymmetricEigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigen(Tensor(Shape{2, 3})).ok());
}

TEST(SymmetricEigenTest, RejectsAsymmetric) {
  Tensor a(Shape{2, 2}, {1, 5, -5, 1});
  EXPECT_FALSE(SymmetricEigen(a).ok());
}

TEST(TopKEigenTest, MatchesJacobiOnSmall) {
  Rng rng(19);
  Tensor a = RandomSymmetricPsd(20, &rng);
  auto full = SymmetricEigen(a);
  auto topk = TopKEigen(a, 3);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(topk.ok());
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(topk->eigenvalues[j], full->eigenvalues[j], 1e-3f);
  }
}

TEST(TopKEigenTest, SubspaceIterationOnLargeMatrix) {
  Rng rng(23);
  // d=150 > 128 triggers the iterative path.
  Tensor b = Tensor::RandN({150, 8}, &rng);
  Tensor a = MatMul(b, TransposeLast2(b));  // rank 8 PSD
  auto r = TopKEigen(a, 5, /*seed=*/7);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Eigen equation for retained pairs.
  Tensor av = MatMul(a, r->eigenvectors);
  for (int64_t j = 0; j < 5; ++j) {
    double num = 0, den = 0;
    for (int64_t i = 0; i < 150; ++i) {
      const double diff =
          av.at({i, j}) - r->eigenvalues[j] * r->eigenvectors.at({i, j});
      num += diff * diff;
      den += static_cast<double>(av.at({i, j})) * av.at({i, j});
    }
    EXPECT_LT(std::sqrt(num / std::max(den, 1e-9)), 5e-2)
        << "eigenpair " << j;
  }
  // Sorted descending, all non-negative for PSD.
  for (int64_t j = 1; j < 5; ++j) {
    EXPECT_GE(r->eigenvalues[j - 1], r->eigenvalues[j] - 1e-4f);
  }
  EXPECT_GE(r->eigenvalues[4], -1e-4f);
}

TEST(TopKEigenTest, CountsEachDecompositionOnce) {
  const obs::Counter* calls =
      obs::Registry::Instance().GetCounter("linalg.eigen_calls");
  Rng rng(29);
  // d=20 delegates to Jacobi; d=150 runs subspace iteration.
  for (int64_t d : {20, 150}) {
    Tensor a = RandomSymmetricPsd(d, &rng);
    const uint64_t before = calls->value();
    ASSERT_TRUE(TopKEigen(a, 3).ok());
    EXPECT_EQ(calls->value() - before, 1u) << "d=" << d;
  }
}

TEST(TopKEigenTest, RejectsBadK) {
  Tensor a = Tensor::Eye(4);
  EXPECT_FALSE(TopKEigen(a, 0).ok());
  EXPECT_FALSE(TopKEigen(a, 5).ok());
}

TEST(TruncatedSvdTest, ReconstructsLowRankMatrix) {
  Rng rng(29);
  Tensor u = Tensor::RandN({30, 3}, &rng);
  Tensor v = Tensor::RandN({3, 10}, &rng);
  Tensor x = MatMul(u, v);  // exactly rank 3
  auto svd = TruncatedSvd(x, 3);
  ASSERT_TRUE(svd.ok());
  // Reconstruct: U diag(S) Vt.
  Tensor us = svd->u.Clone();
  for (int64_t i = 0; i < 30; ++i) {
    for (int64_t j = 0; j < 3; ++j) us.at({i, j}) *= svd->s[j];
  }
  Tensor recon = MatMul(us, svd->vt);
  EXPECT_LT(RelativeError(x, recon), 1e-2f);
}

TEST(TruncatedSvdTest, SingularValuesDescending) {
  Rng rng(31);
  Tensor x = Tensor::RandN({40, 12}, &rng);
  auto svd = TruncatedSvd(x, 6);
  ASSERT_TRUE(svd.ok());
  for (int64_t j = 1; j < 6; ++j) {
    EXPECT_GE(svd->s[j - 1], svd->s[j] - 1e-4f);
  }
}

TEST(TruncatedSvdTest, RightVectorsOrthonormal) {
  Rng rng(37);
  Tensor x = Tensor::RandN({50, 8}, &rng);
  auto svd = TruncatedSvd(x, 4);
  ASSERT_TRUE(svd.ok());
  Tensor vvt = MatMul(svd->vt, TransposeLast2(svd->vt));
  EXPECT_LT(MaxAbsDiff(vvt, Tensor::Eye(4)), 1e-3f);
}

TEST(TruncatedSvdTest, RejectsBadInput) {
  EXPECT_FALSE(TruncatedSvd(Tensor(Shape{3}), 1).ok());
  EXPECT_FALSE(TruncatedSvd(Tensor(Shape{3, 3}), 0).ok());
  EXPECT_FALSE(TruncatedSvd(Tensor(Shape{3, 3}), 4).ok());
}

TEST(QrTest, ReconstructsAndOrthonormal) {
  Rng rng(41);
  Tensor a = Tensor::RandN({12, 5}, &rng);
  auto qr = QrDecomposition(a);
  ASSERT_TRUE(qr.ok());
  EXPECT_LT(RelativeError(a, MatMul(qr->q, qr->r)), 1e-4f);
  Tensor qtq = MatMul(TransposeLast2(qr->q), qr->q);
  EXPECT_LT(MaxAbsDiff(qtq, Tensor::Eye(5)), 1e-4f);
  // R upper triangular.
  for (int64_t i = 1; i < 5; ++i) {
    for (int64_t j = 0; j < i; ++j) {
      EXPECT_NEAR(qr->r.at({i, j}), 0.0f, 1e-6f);
    }
  }
}

TEST(QrTest, RejectsWideAndRankDeficient) {
  EXPECT_FALSE(QrDecomposition(Tensor(Shape{3, 5})).ok());
  Tensor deficient(Shape{4, 2});  // all zeros
  EXPECT_FALSE(QrDecomposition(deficient).ok());
}

TEST(RelativeErrorTest, ZeroForIdentical) {
  Rng rng(43);
  Tensor a = Tensor::RandN({4, 4}, &rng);
  EXPECT_EQ(RelativeError(a, a), 0.0f);
}

}  // namespace
}  // namespace tsfm
