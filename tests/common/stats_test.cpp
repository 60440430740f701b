#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace lsqca {
namespace {

TEST(SummaryStats, EmptyThrowsOnAccess)
{
    SummaryStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_THROW(s.mean(), ConfigError);
    EXPECT_THROW(s.min(), ConfigError);
    EXPECT_THROW(s.max(), ConfigError);
}

TEST(SummaryStats, SingleValue)
{
    SummaryStats s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SummaryStats, KnownMoments)
{
    SummaryStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(EmpiricalCdf, AtOnEmptyIsZero)
{
    EmpiricalCdf cdf;
    EXPECT_DOUBLE_EQ(cdf.at(10.0), 0.0);
}

TEST(EmpiricalCdf, StepFunction)
{
    EmpiricalCdf cdf;
    cdf.add({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.at(99.0), 1.0);
}

TEST(EmpiricalCdf, QuantileNearestRank)
{
    EmpiricalCdf cdf;
    cdf.add({10.0, 20.0, 30.0, 40.0, 50.0});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.2), 10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 30.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 50.0);
    EXPECT_THROW(cdf.quantile(1.5), ConfigError);
}

TEST(EmpiricalCdf, CurveIsMonotoneAndDeduplicated)
{
    EmpiricalCdf cdf;
    cdf.add({3.0, 1.0, 3.0, 2.0, 3.0});
    const auto curve = cdf.curve();
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_DOUBLE_EQ(curve[0].first, 1.0);
    EXPECT_DOUBLE_EQ(curve[0].second, 0.2);
    EXPECT_DOUBLE_EQ(curve[2].first, 3.0);
    EXPECT_DOUBLE_EQ(curve[2].second, 1.0);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GT(curve[i].first, curve[i - 1].first);
        EXPECT_GT(curve[i].second, curve[i - 1].second);
    }
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(Geomean, RejectsEmptyAndNonPositive)
{
    EXPECT_THROW(geomean({}), ConfigError);
    EXPECT_THROW(geomean({1.0, 0.0}), ConfigError);
    EXPECT_THROW(geomean({-1.0}), ConfigError);
}

} // namespace
} // namespace lsqca
