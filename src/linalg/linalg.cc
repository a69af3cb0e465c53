#include "linalg/linalg.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace tsfm {

Tensor ColumnMeans(const Tensor& x) {
  TSFM_CHECK_EQ(x.ndim(), 2);
  return Mean(x, 0);
}

Tensor ColumnStds(const Tensor& x, float epsilon) {
  TSFM_CHECK_EQ(x.ndim(), 2);
  Tensor var = Variance(x, 0);
  Tensor std = Sqrt(var);
  float* p = std.mutable_data();
  for (int64_t i = 0; i < std.numel(); ++i) p[i] = std::max(p[i], epsilon);
  return std;
}

Tensor Covariance(const Tensor& x, bool center) {
  TSFM_CHECK_EQ(x.ndim(), 2);
  const int64_t n = x.dim(0);
  TSFM_CHECK_GT(n, 0);
  Tensor xc = x;
  if (center) {
    xc = Sub(x, Mean(x, 0, /*keepdim=*/true));
  }
  Tensor cov = MatMul(TransposeLast2(xc), xc);
  return Scale(cov, 1.0f / static_cast<float>(n));
}

Result<EigenResult> SymmetricEigen(const Tensor& a, int max_sweeps,
                                   float symmetry_tol) {
  TSFM_TRACE_SPAN("linalg.symmetric_eigen");
  static obs::Counter* const counter =
      obs::Registry::Instance().GetCounter("linalg.eigen_calls");
  counter->Add(1);
  if (a.ndim() != 2 || a.dim(0) != a.dim(1)) {
    return Status::InvalidArgument("SymmetricEigen requires a square matrix, got " +
                                   ShapeToString(a.shape()));
  }
  const int64_t d = a.dim(0);
  const Tensor ad = a.Contiguous();
  // Verify symmetry relative to the matrix scale. Parallel over rows; each
  // chunk reports whether it saw a violation.
  const float scale = std::max(1.0f, MaxAll(Abs(ad)));
  const float* pa = ad.data();
  const bool asymmetric = runtime::ParallelReduce(
      0, d, /*grain=*/64, false,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          for (int64_t j = i + 1; j < d; ++j) {
            if (std::fabs(pa[i * d + j] - pa[j * d + i]) >
                symmetry_tol * scale) {
              return true;
            }
          }
        }
        return false;
      },
      [](bool acc, bool part) { return acc || part; });
  if (asymmetric) {
    return Status::InvalidArgument("SymmetricEigen: matrix not symmetric");
  }

  // Work in double for stability; symmetrize to kill small asymmetries.
  // Reads the float source, writes disjoint rows — safe to parallelize.
  std::vector<double> m(static_cast<size_t>(d * d));
  runtime::ParallelFor(0, d, /*grain=*/64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        m[static_cast<size_t>(i * d + j)] =
            0.5 * (static_cast<double>(pa[i * d + j]) + pa[j * d + i]);
      }
    }
  });
  std::vector<double> v(static_cast<size_t>(d * d), 0.0);
  for (int64_t i = 0; i < d; ++i) v[static_cast<size_t>(i * d + i)] = 1.0;

  auto off_diag_norm = [&]() {
    double s = 0.0;
    for (int64_t i = 0; i < d; ++i) {
      for (int64_t j = i + 1; j < d; ++j) {
        const double x = m[static_cast<size_t>(i * d + j)];
        s += 2.0 * x * x;
      }
    }
    return std::sqrt(s);
  };

  double frob = 0.0;
  for (double x : m) frob += x * x;
  frob = std::sqrt(frob);
  const double tol = 1e-11 * std::max(frob, 1.0);

  bool converged = d <= 1 || off_diag_norm() <= tol;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    for (int64_t p = 0; p < d - 1; ++p) {
      for (int64_t q = p + 1; q < d; ++q) {
        const double apq = m[static_cast<size_t>(p * d + q)];
        if (std::fabs(apq) < 1e-300) continue;
        const double app = m[static_cast<size_t>(p * d + p)];
        const double aqq = m[static_cast<size_t>(q * d + q)];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply rotation to rows/cols p and q of m.
        for (int64_t i = 0; i < d; ++i) {
          const double mip = m[static_cast<size_t>(i * d + p)];
          const double miq = m[static_cast<size_t>(i * d + q)];
          m[static_cast<size_t>(i * d + p)] = c * mip - s * miq;
          m[static_cast<size_t>(i * d + q)] = s * mip + c * miq;
        }
        for (int64_t i = 0; i < d; ++i) {
          const double mpi = m[static_cast<size_t>(p * d + i)];
          const double mqi = m[static_cast<size_t>(q * d + i)];
          m[static_cast<size_t>(p * d + i)] = c * mpi - s * mqi;
          m[static_cast<size_t>(q * d + i)] = s * mpi + c * mqi;
        }
        // Accumulate eigenvectors.
        for (int64_t i = 0; i < d; ++i) {
          const double vip = v[static_cast<size_t>(i * d + p)];
          const double viq = v[static_cast<size_t>(i * d + q)];
          v[static_cast<size_t>(i * d + p)] = c * vip - s * viq;
          v[static_cast<size_t>(i * d + q)] = s * vip + c * viq;
        }
      }
    }
    converged = off_diag_norm() <= tol;
  }
  if (!converged) {
    return Status::NumericalError("Jacobi eigendecomposition did not converge");
  }

  // Sort by eigenvalue descending.
  std::vector<int64_t> order(static_cast<size_t>(d));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t i, int64_t j) {
    return m[static_cast<size_t>(i * d + i)] > m[static_cast<size_t>(j * d + j)];
  });

  EigenResult result{Tensor(Shape{d}), Tensor(Shape{d, d})};
  runtime::ParallelFor(0, d, /*grain=*/16, [&](int64_t lo, int64_t hi) {
    for (int64_t k = lo; k < hi; ++k) {
      const int64_t src = order[static_cast<size_t>(k)];
      result.eigenvalues.mutable_data()[k] =
          static_cast<float>(m[static_cast<size_t>(src * d + src)]);
      for (int64_t i = 0; i < d; ++i) {
        result.eigenvectors.mutable_data()[i * d + k] =
            static_cast<float>(v[static_cast<size_t>(i * d + src)]);
      }
    }
  });
  return result;
}

Result<EigenResult> TopKEigen(const Tensor& a, int64_t k, uint64_t seed,
                              int max_iters, double tol) {
  TSFM_TRACE_SPAN("linalg.topk_eigen");
  if (a.ndim() != 2 || a.dim(0) != a.dim(1)) {
    return Status::InvalidArgument("TopKEigen requires a square matrix");
  }
  const int64_t d = a.dim(0);
  if (k <= 0 || k > d) return Status::InvalidArgument("TopKEigen: k out of range");

  // Either path runs SymmetricEigen exactly once (on `a`, or on the
  // Rayleigh-Ritz block), which counts the call in linalg.eigen_calls.
  // Small problems: exact Jacobi, then truncate.
  if (d <= 128) {
    TSFM_ASSIGN_OR_RETURN(EigenResult full, SymmetricEigen(a));
    EigenResult out{Tensor(Shape{k}), Tensor(Shape{d, k})};
    for (int64_t j = 0; j < k; ++j) {
      out.eigenvalues.mutable_data()[j] = full.eigenvalues[j];
      for (int64_t i = 0; i < d; ++i) {
        out.eigenvectors.at({i, j}) = full.eigenvectors.at({i, j});
      }
    }
    return out;
  }

  // Subspace iteration with an oversampled block for faster separation.
  const int64_t block = std::min(d, k + 4);
  Rng rng(seed);
  Tensor q = Tensor::RandN(Shape{d, block}, &rng);
  TSFM_ASSIGN_OR_RETURN(QrResult qr0, QrDecomposition(q));
  q = qr0.q;
  Tensor prev_eigs = Tensor::Zeros(Shape{block});
  for (int iter = 0; iter < max_iters; ++iter) {
    Tensor z = MatMul(a, q);  // (d, block)
    auto qr = QrDecomposition(z);
    if (!qr.ok()) {
      // Rank-deficient block: re-randomize the null directions.
      z = Add(z, Tensor::RandN(Shape{d, block}, &rng, 1e-6f));
      TSFM_ASSIGN_OR_RETURN(QrResult qr2, QrDecomposition(z));
      q = qr2.q;
      continue;
    }
    q = qr->q;
    // Rayleigh quotients as convergence probe. Parallel over columns; each
    // column's dot product stays serial over i, so values are unchanged.
    Tensor aq = MatMul(a, q);
    Tensor eigs(Shape{block});
    runtime::ParallelFor(0, block, /*grain=*/2, [&](int64_t lo, int64_t hi) {
      for (int64_t j = lo; j < hi; ++j) {
        double num = 0.0;
        for (int64_t i = 0; i < d; ++i) {
          num += static_cast<double>(q.at({i, j})) * aq.at({i, j});
        }
        eigs.mutable_data()[j] = static_cast<float>(num);
      }
    });
    double delta = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      delta = std::max(delta, static_cast<double>(std::fabs(
                                  eigs[j] - prev_eigs[j])));
    }
    prev_eigs = eigs;
    const double scale = std::max(1.0, static_cast<double>(MaxAll(Abs(eigs))));
    if (iter > 2 && delta / scale < tol) break;
  }
  // Rayleigh-Ritz on the converged subspace for the final eigenpairs.
  Tensor small = MatMul(TransposeLast2(q), MatMul(a, q));  // (block, block)
  TSFM_ASSIGN_OR_RETURN(EigenResult ritz, SymmetricEigen(small));
  Tensor vecs = MatMul(q, ritz.eigenvectors);  // (d, block)
  EigenResult out{Tensor(Shape{k}), Tensor(Shape{d, k})};
  for (int64_t j = 0; j < k; ++j) {
    out.eigenvalues.mutable_data()[j] = ritz.eigenvalues[j];
    for (int64_t i = 0; i < d; ++i) {
      out.eigenvectors.at({i, j}) = vecs.at({i, j});
    }
  }
  return out;
}

Result<SvdResult> TruncatedSvd(const Tensor& x, int64_t k) {
  TSFM_TRACE_SPAN("linalg.truncated_svd");
  static obs::Counter* const counter =
      obs::Registry::Instance().GetCounter("linalg.svd_calls");
  counter->Add(1);
  if (x.ndim() != 2) {
    return Status::InvalidArgument("TruncatedSvd requires a 2-D matrix");
  }
  const int64_t n = x.dim(0);
  const int64_t d = x.dim(1);
  if (k <= 0 || k > std::min(n, d)) {
    return Status::InvalidArgument("TruncatedSvd: k out of range");
  }
  // Gram-matrix route: top-k eigen of X^T X (d x d) — exact Jacobi for small
  // d, subspace iteration for large d (e.g. DuckDuckGeese's 1345 channels).
  Tensor gram = MatMul(TransposeLast2(x), x);
  TSFM_ASSIGN_OR_RETURN(EigenResult eig, TopKEigen(gram, k));

  SvdResult out{Tensor(Shape{n, k}), Tensor(Shape{k}), Tensor(Shape{k, d})};
  for (int64_t j = 0; j < k; ++j) {
    const float ev = std::max(eig.eigenvalues[j], 0.0f);
    const float sv = std::sqrt(ev);
    out.s.mutable_data()[j] = sv;
    for (int64_t i = 0; i < d; ++i) {
      out.vt.mutable_data()[j * d + i] = eig.eigenvectors.at({i, j});
    }
  }
  // u = x * v * diag(1/s); columns with ~zero singular value are zeroed.
  Tensor v_top(Shape{d, k});
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      v_top.at({i, j}) = out.vt.at({j, i});
    }
  }
  Tensor xu = MatMul(x, v_top);  // (n, k)
  const float* ps = out.s.data();
  const float* pxu = xu.data();
  float* pu = out.u.mutable_data();
  runtime::ParallelFor(0, n, /*grain=*/1024, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < k; ++j) {
        const float sv = ps[j];
        const float inv = sv > 1e-12f ? 1.0f / sv : 0.0f;
        pu[i * k + j] = pxu[i * k + j] * inv;
      }
    }
  });
  return out;
}

Result<QrResult> QrDecomposition(const Tensor& a) {
  TSFM_TRACE_SPAN("linalg.qr");
  static obs::Counter* const counter =
      obs::Registry::Instance().GetCounter("linalg.qr_calls");
  counter->Add(1);
  if (a.ndim() != 2 || a.dim(0) < a.dim(1)) {
    return Status::InvalidArgument(
        "QrDecomposition requires (m, n) with m >= n");
  }
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  // Modified Gram-Schmidt in double precision (numerically adequate for the
  // well-conditioned random matrices we orthonormalize).
  std::vector<std::vector<double>> q(static_cast<size_t>(n),
                                     std::vector<double>(static_cast<size_t>(m)));
  Tensor r = Tensor::Zeros(Shape{n, n});
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = 0; i < m; ++i) {
      q[static_cast<size_t>(j)][static_cast<size_t>(i)] = a.at({i, j});
    }
    for (int64_t p = 0; p < j; ++p) {
      double dot = 0.0;
      for (int64_t i = 0; i < m; ++i) {
        dot += q[static_cast<size_t>(p)][static_cast<size_t>(i)] *
               q[static_cast<size_t>(j)][static_cast<size_t>(i)];
      }
      r.at({p, j}) = static_cast<float>(dot);
      for (int64_t i = 0; i < m; ++i) {
        q[static_cast<size_t>(j)][static_cast<size_t>(i)] -=
            dot * q[static_cast<size_t>(p)][static_cast<size_t>(i)];
      }
    }
    double norm = 0.0;
    for (int64_t i = 0; i < m; ++i) {
      const double x = q[static_cast<size_t>(j)][static_cast<size_t>(i)];
      norm += x * x;
    }
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      return Status::NumericalError("QrDecomposition: rank-deficient input");
    }
    r.at({j, j}) = static_cast<float>(norm);
    for (int64_t i = 0; i < m; ++i) {
      q[static_cast<size_t>(j)][static_cast<size_t>(i)] /= norm;
    }
  }
  QrResult out{Tensor(Shape{m, n}), std::move(r)};
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      out.q.at({i, j}) =
          static_cast<float>(q[static_cast<size_t>(j)][static_cast<size_t>(i)]);
    }
  }
  return out;
}

float RelativeError(const Tensor& a, const Tensor& b) {
  TSFM_CHECK(a.shape() == b.shape());
  const float denom = Norm(a);
  if (denom == 0.0f) return Norm(b) == 0.0f ? 0.0f : 1.0f;
  return Norm(Sub(a, b)) / denom;
}

}  // namespace tsfm
