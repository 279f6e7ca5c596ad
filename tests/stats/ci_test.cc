/** @file Tests for confidence intervals (paper Eq. 1-2). */

#include "stats/ci.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/random.hh"
#include "stats/descriptive.hh"

namespace tpv {
namespace stats {
namespace {

std::vector<double>
ramp(int n)
{
    std::vector<double> xs;
    for (int i = 1; i <= n; ++i)
        xs.push_back(i);
    return xs;
}

TEST(NonparametricCI, PaperEquationIndices)
{
    // n = 50, z = 1.96: lower rank = floor((50 - 1.96*sqrt(50))/2) =
    // floor(18.07) = 18; upper rank = ceil(1 + (50 + 13.859)/2) =
    // ceil(32.93) = 33. With data 1..50 the CI is [18, 33].
    auto ci = nonparametricMedianCI(ramp(50), 0.95);
    EXPECT_DOUBLE_EQ(ci.lower, 18);
    EXPECT_DOUBLE_EQ(ci.upper, 33);
    EXPECT_DOUBLE_EQ(ci.center, 25.5);
}

TEST(NonparametricCI, MedianInsideBounds)
{
    Rng rng(8);
    for (int t = 0; t < 100; ++t) {
        std::vector<double> xs;
        const int n = 10 + static_cast<int>(rng.uniformInt(0, 90));
        for (int i = 0; i < n; ++i)
            xs.push_back(rng.exponential(50));
        auto ci = nonparametricMedianCI(xs);
        EXPECT_LE(ci.lower, ci.center);
        EXPECT_GE(ci.upper, ci.center);
    }
}

TEST(NonparametricCI, HigherConfidenceIsWider)
{
    Rng rng(15);
    std::vector<double> xs;
    for (int i = 0; i < 60; ++i)
        xs.push_back(rng.normal(100, 20));
    auto ci90 = nonparametricMedianCI(xs, 0.90);
    auto ci99 = nonparametricMedianCI(xs, 0.99);
    EXPECT_LE(ci99.lower, ci90.lower);
    EXPECT_GE(ci99.upper, ci90.upper);
}

TEST(NonparametricCI, SmallSampleClampsToRange)
{
    auto ci = nonparametricMedianCI({3.0, 7.0}, 0.95);
    EXPECT_GE(ci.lower, 3.0);
    EXPECT_LE(ci.upper, 7.0);
}

TEST(NonparametricCI, CoversTrueMedianAtNominalRate)
{
    // Draw many sample sets from a known distribution and count how
    // often the 95% CI covers the true median. Should be >= ~90%.
    Rng rng(123);
    const double trueMedian = 100.0; // normal(100, 15) median
    int covered = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> xs;
        for (int i = 0; i < 50; ++i)
            xs.push_back(rng.normal(100, 15));
        if (nonparametricMedianCI(xs).contains(trueMedian))
            ++covered;
    }
    EXPECT_GE(covered, trials * 90 / 100);
}

TEST(BootstrapCI, CoversTrueMedianAtNominalRate)
{
    Rng rng(321);
    int covered = 0;
    const int trials = 150;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> xs;
        for (int i = 0; i < 50; ++i)
            xs.push_back(rng.normal(100, 15));
        if (bootstrapMedianCI(xs, 0.95, 400,
                              static_cast<std::uint64_t>(t) + 1)
                .contains(100.0))
            ++covered;
    }
    EXPECT_GE(covered, trials * 85 / 100);
}

TEST(BootstrapCI, AgreesWithOrderStatisticInterval)
{
    // The two distribution-free constructions should roughly agree on
    // well-behaved data.
    Rng rng(33);
    std::vector<double> xs;
    for (int i = 0; i < 80; ++i)
        xs.push_back(rng.normal(100, 10));
    auto boot = bootstrapMedianCI(xs);
    auto order = nonparametricMedianCI(xs);
    EXPECT_LT(std::abs(boot.lower - order.lower), 4.0);
    EXPECT_LT(std::abs(boot.upper - order.upper), 4.0);
}

TEST(BootstrapCI, DeterministicForFixedSeed)
{
    std::vector<double> xs{5, 1, 9, 3, 7, 2, 8, 4, 6, 10};
    auto a = bootstrapMedianCI(xs, 0.95, 500, 7);
    auto b = bootstrapMedianCI(xs, 0.95, 500, 7);
    EXPECT_DOUBLE_EQ(a.lower, b.lower);
    EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(BootstrapCI, CenterInsideInterval)
{
    std::vector<double> xs{1, 2, 2, 3, 100};
    auto ci = bootstrapMedianCI(xs);
    EXPECT_LE(ci.lower, ci.center);
    EXPECT_GE(ci.upper, ci.center);
}

TEST(ConfInterval, OverlapDetection)
{
    ConfInterval a{0, 10, 5, 0.95};
    ConfInterval b{9, 20, 15, 0.95};
    ConfInterval c{11, 20, 15, 0.95};
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_TRUE(b.overlaps(a));
    EXPECT_FALSE(a.overlaps(c));
}

TEST(ConfInterval, TouchingIntervalsOverlap)
{
    ConfInterval a{0, 10, 5, 0.95};
    ConfInterval b{10, 20, 15, 0.95};
    EXPECT_TRUE(a.overlaps(b));
}

TEST(ConfidentOrdering, PaperDecisionRule)
{
    // "To be confident that a mean is higher than another, their CI
    // should not overlap."
    ConfInterval lo{0, 10, 5, 0.95};
    ConfInterval hi{11, 20, 15, 0.95};
    ConfInterval mid{9, 14, 11, 0.95};
    EXPECT_EQ(confidentOrdering(hi, lo), +1);
    EXPECT_EQ(confidentOrdering(lo, hi), -1);
    EXPECT_EQ(confidentOrdering(lo, mid), 0);
    EXPECT_EQ(confidentOrdering(mid, hi), 0);
}

} // namespace
} // namespace stats
} // namespace tpv
