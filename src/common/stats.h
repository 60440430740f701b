#ifndef LSQCA_COMMON_STATS_H
#define LSQCA_COMMON_STATS_H

/**
 * @file
 * Summary statistics and empirical distributions used by the trace
 * analyzer (Fig. 8) and the bench harness (GEOMEAN rows of Fig. 14).
 */

#include <cstddef>
#include <vector>

namespace lsqca {

/**
 * Streaming summary of a sequence of doubles: count/min/max/mean/stddev.
 * Uses Welford's algorithm for numerically stable variance.
 */
class SummaryStats
{
  public:
    /** Add one observation. */
    void add(double x);

    std::size_t count() const { return count_; }
    double min() const;
    double max() const;
    double mean() const;
    /** Population variance; 0 for fewer than two samples. */
    double variance() const;
    double stddev() const;
    double sum() const { return mean_ * static_cast<double>(count_); }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Empirical cumulative distribution over recorded samples.
 *
 * Mirrors the reference-period CDFs of Fig. 8b/8d: samples are collected,
 * then queried at arbitrary points or exported as sorted (x, F(x)) pairs.
 */
class EmpiricalCdf
{
  public:
    /** Record one sample. */
    void add(double x);

    /** Record many samples. */
    void add(const std::vector<double> &xs);

    std::size_t count() const { return samples_.size(); }

    /** Fraction of samples <= x. Returns 0 for an empty distribution. */
    double at(double x) const;

    /** p-quantile via nearest-rank, p in [0, 1]. @pre non-empty. */
    double quantile(double p) const;

    /**
     * Export the CDF as sorted sample points with cumulative fractions,
     * de-duplicated on x (last fraction wins), ready for plotting.
     */
    std::vector<std::pair<double, double>> curve() const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/** Geometric mean of positive values. @pre all values > 0 and non-empty. */
double geomean(const std::vector<double> &values);

} // namespace lsqca

#endif // LSQCA_COMMON_STATS_H
