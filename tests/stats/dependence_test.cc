/** @file Tests for iid / dependence diagnostics. */

#include "stats/dependence.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/random.hh"
#include "stats/normality.hh"

namespace tpv {
namespace stats {
namespace {

std::vector<double>
whiteNoise(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> xs;
    for (int i = 0; i < n; ++i)
        xs.push_back(rng.normal(0, 1));
    return xs;
}

TEST(Autocorrelation, WhiteNoiseNearZero)
{
    auto xs = whiteNoise(2000, 3);
    EXPECT_LT(std::abs(autocorrelation(xs, 1)), 0.06);
    EXPECT_LT(std::abs(autocorrelation(xs, 5)), 0.06);
}

TEST(Autocorrelation, PerfectlyPeriodicSeries)
{
    // Alternating series has lag-1 autocorrelation ~ -1.
    std::vector<double> xs;
    for (int i = 0; i < 100; ++i)
        xs.push_back(i % 2 == 0 ? 1.0 : -1.0);
    EXPECT_NEAR(autocorrelation(xs, 1), -1.0, 0.05);
    EXPECT_NEAR(autocorrelation(xs, 2), 1.0, 0.05);
}

TEST(Autocorrelation, RandomWalkHighlyCorrelated)
{
    Rng rng(4);
    std::vector<double> xs{0};
    for (int i = 0; i < 999; ++i)
        xs.push_back(xs.back() + rng.normal(0, 1));
    EXPECT_GT(autocorrelation(xs, 1), 0.9);
}

TEST(Autocorrelation, ConstantSeriesDefinedAsZero)
{
    std::vector<double> xs(50, 7.0);
    EXPECT_DOUBLE_EQ(autocorrelation(xs, 1), 0.0);
}

TEST(LooksIndependent, AcceptsWhiteNoise)
{
    EXPECT_TRUE(looksIndependent(whiteNoise(500, 6)));
}

TEST(LooksIndependent, RejectsRandomWalk)
{
    Rng rng(7);
    std::vector<double> xs{0};
    for (int i = 0; i < 499; ++i)
        xs.push_back(xs.back() + rng.normal(0, 1));
    EXPECT_FALSE(looksIndependent(xs));
}

TEST(Spearman, PerfectMonotoneRelationship)
{
    std::vector<double> xs{1, 2, 3, 4, 5, 6};
    std::vector<double> ys{10, 40, 90, 160, 250, 360}; // monotone in xs
    auto r = spearman(xs, ys);
    EXPECT_NEAR(r.rho, 1.0, 1e-12);
    EXPECT_LT(r.pValue, 0.01);
}

TEST(Spearman, PerfectInverseRelationship)
{
    std::vector<double> xs{1, 2, 3, 4, 5, 6};
    std::vector<double> ys{6, 5, 4, 3, 2, 1};
    auto r = spearman(xs, ys);
    EXPECT_NEAR(r.rho, -1.0, 1e-12);
}

TEST(Spearman, IndependentSeriesNearZero)
{
    auto xs = whiteNoise(400, 9);
    auto ys = whiteNoise(400, 10);
    auto r = spearman(xs, ys);
    EXPECT_LT(std::abs(r.rho), 0.12);
    EXPECT_GT(r.pValue, 0.01);
}

TEST(Spearman, HandlesTiesWithAverageRanks)
{
    std::vector<double> xs{1, 1, 2, 2, 3, 3};
    std::vector<double> ys{1, 1, 2, 2, 3, 3};
    auto r = spearman(xs, ys);
    EXPECT_NEAR(r.rho, 1.0, 1e-9);
}

TEST(Spearman, ConstantSeriesIsUncorrelated)
{
    std::vector<double> xs(10, 5.0);
    auto ys = whiteNoise(10, 11);
    auto r = spearman(xs, ys);
    EXPECT_DOUBLE_EQ(r.rho, 0.0);
    EXPECT_DOUBLE_EQ(r.pValue, 1.0);
}

TEST(OrderEffect, IndependentRunsShowNoEffect)
{
    auto r = orderEffect(whiteNoise(100, 20));
    EXPECT_FALSE(r.orderEffectAt(0.05));
}

TEST(OrderEffect, ThermalDriftDetected)
{
    // Later runs systematically slower: the ordering trap.
    Rng rng(21);
    std::vector<double> xs;
    for (int i = 0; i < 50; ++i)
        xs.push_back(100.0 + 0.4 * i + rng.normal(0, 3));
    auto r = orderEffect(xs);
    EXPECT_TRUE(r.orderEffectAt(0.05));
    EXPECT_GT(r.rho, 0.5);
}

TEST(OrderEffect, CoolingTrendHasNegativeRho)
{
    Rng rng(22);
    std::vector<double> xs;
    for (int i = 0; i < 50; ++i)
        xs.push_back(100.0 - 0.4 * i + rng.normal(0, 3));
    auto r = orderEffect(xs);
    EXPECT_LT(r.rho, -0.5);
}

TEST(DickeyFuller, StationaryNoiseDetected)
{
    auto r = dickeyFuller(whiteNoise(500, 12));
    EXPECT_TRUE(r.stationaryAt5());
}

TEST(DickeyFuller, RandomWalkNotStationary)
{
    Rng rng(13);
    std::vector<double> xs{0};
    for (int i = 0; i < 499; ++i)
        xs.push_back(xs.back() + rng.normal(0, 1));
    auto r = dickeyFuller(xs);
    EXPECT_FALSE(r.stationaryAt5());
}

TEST(AndersonDarling, ExponentialFitAccepted)
{
    Rng rng(16);
    std::vector<double> xs;
    for (int i = 0; i < 300; ++i)
        xs.push_back(rng.exponential(25));
    auto r = andersonDarlingExponential(xs);
    EXPECT_TRUE(r.exponentialAt5());
}

TEST(AndersonDarling, UniformDataRejectedAsExponential)
{
    Rng rng(17);
    std::vector<double> xs;
    for (int i = 0; i < 300; ++i)
        xs.push_back(rng.uniform(10, 11));
    auto r = andersonDarlingExponential(xs);
    EXPECT_FALSE(r.exponentialAt5());
}

} // namespace
} // namespace stats
} // namespace tpv
