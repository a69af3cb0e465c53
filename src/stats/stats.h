#ifndef TSFM_STATS_STATS_H_
#define TSFM_STATS_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace tsfm::stats {

/// Sample mean of `values` (0 for empty input).
double Mean(const std::vector<double>& values);

/// Unbiased (n-1) sample standard deviation; 0 for fewer than two values.
double SampleStd(const std::vector<double>& values);

/// Regularized incomplete beta function I_x(a, b), for a, b > 0 and
/// x in [0, 1]. Continued-fraction evaluation (Numerical Recipes style).
double RegularizedIncompleteBeta(double a, double b, double x);

/// Two-tailed p-value of a Student-t statistic `t` with `df` degrees of
/// freedom.
double StudentTTwoTailedP(double t, double df);

/// Result of a two-sample Welch t-test (unequal variances), the test used for
/// the paper's Figure 5 heatmaps.
struct WelchResult {
  double t_statistic;
  double degrees_of_freedom;
  double p_value;
};

/// Welch two-sample t-test between accuracy samples `a` and `b` (each needs
/// at least two values). The null hypothesis is equal means; a p-value near 1
/// means the two methods perform statistically alike.
Result<WelchResult> WelchTTest(const std::vector<double>& a,
                               const std::vector<double>& b);

/// Pairwise Welch p-value matrix between methods; entry (i, j) is the p-value
/// of methods[i] vs methods[j], with 1.0 on the diagonal. Each inner vector
/// holds the per-seed accuracies of one method. If either sample in a pair is
/// degenerate (fewer than 2 values), the pair's entry is NaN.
std::vector<std::vector<double>> PairwisePValueMatrix(
    const std::vector<std::vector<double>>& methods);

/// Competition ranks with ties averaged: the highest value gets rank 1.
/// (Used for the paper's Figure 4 average-rank comparison, where lower rank
/// is better performance.)
std::vector<double> RankDescending(const std::vector<double>& values);

/// Averages per-dataset rank vectors into one rank per method.
/// `per_dataset[d][m]` is the accuracy of method m on dataset d.
std::vector<double> AverageRanks(
    const std::vector<std::vector<double>>& per_dataset);

/// Formats "0.123+-0.456" paper-style from per-seed values.
std::string FormatMeanStd(const std::vector<double>& values);

/// Regularized lower incomplete gamma function P(a, x), a > 0, x >= 0.
double RegularizedLowerGamma(double a, double x);

/// Upper-tail p-value of a chi-square statistic with `df` degrees of freedom.
double ChiSquareUpperTailP(double statistic, double df);

/// Result of the Friedman rank test over N datasets and k methods — the
/// standard omnibus test in time-series-classification papers (the
/// significance companion to Figure 4's average ranks).
struct FriedmanResult {
  double chi_square;
  double degrees_of_freedom;
  double p_value;                   // small => methods differ somewhere
  std::vector<double> average_ranks;
};

/// Friedman test from a matrix `per_dataset[d][m]` of method accuracies.
/// Requires >= 2 datasets and >= 2 methods.
Result<FriedmanResult> FriedmanTest(
    const std::vector<std::vector<double>>& per_dataset);

/// Nemenyi critical difference at alpha = 0.05: two methods' average ranks
/// are significantly different iff they differ by more than this. Supported
/// for 2..10 methods.
Result<double> NemenyiCriticalDifference(int64_t num_methods,
                                         int64_t num_datasets);

}  // namespace tsfm::stats

#endif  // TSFM_STATS_STATS_H_
