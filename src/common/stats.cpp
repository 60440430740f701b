#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace lsqca {

void
SummaryStats::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
SummaryStats::min() const
{
    LSQCA_REQUIRE(count_ > 0, "SummaryStats::min on empty summary");
    return min_;
}

double
SummaryStats::max() const
{
    LSQCA_REQUIRE(count_ > 0, "SummaryStats::max on empty summary");
    return max_;
}

double
SummaryStats::mean() const
{
    LSQCA_REQUIRE(count_ > 0, "SummaryStats::mean on empty summary");
    return mean_;
}

double
SummaryStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
SummaryStats::stddev() const
{
    return std::sqrt(variance());
}

void
EmpiricalCdf::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

void
EmpiricalCdf::add(const std::vector<double> &xs)
{
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    sorted_ = false;
}

void
EmpiricalCdf::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
EmpiricalCdf::at(double x) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
}

double
EmpiricalCdf::quantile(double p) const
{
    LSQCA_REQUIRE(!samples_.empty(), "EmpiricalCdf::quantile on empty CDF");
    LSQCA_REQUIRE(p >= 0.0 && p <= 1.0, "quantile p must be in [0, 1]");
    ensureSorted();
    if (p <= 0.0)
        return samples_.front();
    const auto n = samples_.size();
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    return samples_[std::min(n - 1, rank == 0 ? 0 : rank - 1)];
}

std::vector<std::pair<double, double>>
EmpiricalCdf::curve() const
{
    ensureSorted();
    std::vector<std::pair<double, double>> points;
    const auto n = samples_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double frac =
            static_cast<double>(i + 1) / static_cast<double>(n);
        if (!points.empty() && points.back().first == samples_[i])
            points.back().second = frac;
        else
            points.emplace_back(samples_[i], frac);
    }
    return points;
}

double
geomean(const std::vector<double> &values)
{
    LSQCA_REQUIRE(!values.empty(), "geomean of empty vector");
    double log_sum = 0.0;
    for (double v : values) {
        LSQCA_REQUIRE(v > 0.0, "geomean requires positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace lsqca
