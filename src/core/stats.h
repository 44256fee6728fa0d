// Statistics for benchmark results: running moments, distribution summaries
// with confidence intervals, and Welch's t-test for comparing systems.
//
// The paper's complaint is that file-system papers report means (sometimes
// standard deviations) without the statistical machinery to know whether a
// difference is real or where a distribution's shape makes a mean
// meaningless. This module supplies that machinery; modality detection for
// the latter problem lives in modality.h.
#ifndef SRC_CORE_STATS_H_
#define SRC_CORE_STATS_H_

#include <cstddef>
#include <vector>

namespace fsbench {

// Welford online moments. Numerically stable; O(1) per sample.
class RunningStats {
 public:
  void Add(double value);
  void Merge(const RunningStats& other);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  // Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  // Relative standard deviation as a percentage of the mean.
  double rel_stddev_pct() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  bool operator==(const RunningStats& other) const = default;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Distribution summary of a sample set.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double rel_stddev_pct = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  // Half-width of the two-sided 95% confidence interval of the mean
  // (Student t); 0 with fewer than two samples.
  double ci95_half_width = 0.0;

  double ci95_lo() const { return mean - ci95_half_width; }
  double ci95_hi() const { return mean + ci95_half_width; }
  bool operator==(const Summary& other) const = default;
};

Summary Summarize(std::vector<double> values);

// Quantile q in [0,1] with linear interpolation; `sorted` must be ascending.
double PercentileSorted(const std::vector<double>& sorted, double q);

// Regularized incomplete beta function I_x(a, b) (continued fraction).
double RegularizedIncompleteBeta(double a, double b, double x);

// CDF of Student's t distribution with `df` degrees of freedom.
double StudentTCdf(double t, double df);

// Two-sided critical value t* with P(|T| <= t*) = confidence.
double TCritical(double df, double confidence = 0.95);

// Welch's unequal-variance t-test on two samples.
struct WelchResult {
  double t = 0.0;
  double df = 0.0;
  double p_value = 1.0;       // two-sided
  double mean_diff = 0.0;     // mean(a) - mean(b)
  double ci95_lo = 0.0;       // CI of the difference
  double ci95_hi = 0.0;

  bool Significant(double alpha = 0.05) const { return p_value < alpha; }
};

WelchResult WelchTTest(const std::vector<double>& a, const std::vector<double>& b);

// Runs needed so the 95% CI half-width drops below `target_rel` * mean,
// estimated from a pilot sample. Returns at least 2.
size_t RunsForRelativePrecision(const Summary& pilot, double target_rel);

}  // namespace fsbench

#endif  // SRC_CORE_STATS_H_
