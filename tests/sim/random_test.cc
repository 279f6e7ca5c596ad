/** @file Statistical and determinism tests for the RNG. */

#include "sim/random.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace tpv {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.u64(), b.u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.u64() == b.u64());
    EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, Uniform01MeanIsHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform01();
    EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(5);
    std::vector<int> counts(6, 0);
    for (int i = 0; i < 60000; ++i) {
        std::int64_t v = rng.uniformInt(0, 5);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, 5);
        counts[static_cast<std::size_t>(v)]++;
    }
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(17);
    const double mean = 25.0;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.02);
}

TEST(Rng, ExponentialIsMemoryless)
{
    // P(X > a+b | X > a) == P(X > b) for the exponential.
    Rng rng(19);
    const double mean = 10.0;
    int beyondA = 0, beyondAB = 0, beyondB = 0;
    const int n = 300000;
    for (int i = 0; i < n; ++i) {
        double x = rng.exponential(mean);
        if (x > 5.0) {
            ++beyondA;
            if (x > 12.0)
                ++beyondAB;
        }
        if (x > 7.0)
            ++beyondB;
    }
    const double condProb =
        static_cast<double>(beyondAB) / static_cast<double>(beyondA);
    const double uncondProb = static_cast<double>(beyondB) / n;
    EXPECT_NEAR(condProb, uncondProb, 0.01);
}

TEST(Rng, NormalMeanAndSd)
{
    Rng rng(23);
    const int n = 200000;
    double sum = 0, sq = 0;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal(100.0, 15.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 100.0, 0.2);
    EXPECT_NEAR(std::sqrt(var), 15.0, 0.2);
}

TEST(Rng, LognormalMeanSdMatchesRequested)
{
    Rng rng(29);
    const int n = 400000;
    double sum = 0, sq = 0;
    for (int i = 0; i < n; ++i) {
        double x = rng.lognormalMeanSd(10.0, 3.0);
        ASSERT_GT(x, 0.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, LognormalZeroSdIsConstant)
{
    Rng rng(31);
    EXPECT_DOUBLE_EQ(rng.lognormalMeanSd(12.0, 0.0), 12.0);
}

/**
 * The precomputed parameters draw exactly what lognormalMeanSd()
 * always drew: the same bits as its original inline formula on a
 * twin stream, and the same stream position afterwards.
 */
void
expectLognormalBitIdentical(double mean, double sd, std::uint64_t seed)
{
    Rng a(seed), b(seed), ref(seed);
    const Rng::Lognormal p(mean, sd);
    for (int i = 0; i < 10000; ++i) {
        const double x = a.lognormal(p);
        const double y = b.lognormalMeanSd(mean, sd);
        const double variance = sd * sd;
        const double sigma2 = std::log(1.0 + variance / (mean * mean));
        const double mu = std::log(mean) - 0.5 * sigma2;
        const double z =
            std::exp(mu + std::sqrt(sigma2) * ref.standardNormal());
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x),
                  std::bit_cast<std::uint64_t>(y))
            << "draw " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x),
                  std::bit_cast<std::uint64_t>(z))
            << "draw " << i;
    }
    EXPECT_EQ(a.u64(), ref.u64());
}

TEST(Rng, LognormalParamsMatchMeanSdBitForBit)
{
    expectLognormalBitIdentical(1.0, 0.1, 41);        // net::Link jitter
    expectLognormalBitIdentical(8000.0, 2500.0, 43);  // memcached base
    // Open-loop lognormal gap: 10 threads at 100K QPS, cv 0.5.
    expectLognormalBitIdentical(100000.0, 50000.0, 47);
}

TEST(Rng, LognormalZeroSdParamsDrawNothing)
{
    Rng a(53), b(53);
    const Rng::Lognormal p(12.0, 0.0);
    EXPECT_EQ(a.lognormal(p), 12.0);
    EXPECT_EQ(a.u64(), b.u64());
    // The default is the constant 1, Lognormal(1, 0).
    EXPECT_EQ(a.lognormal(Rng::Lognormal()), 1.0);
    EXPECT_EQ(a.u64(), b.u64());
}

TEST(Rng, GeneralizedParetoZeroShapeIsExponential)
{
    Rng rng(41);
    const int n = 200000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += rng.generalizedPareto(0.0, 5.0, 0.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, DiscreteFollowsWeights)
{
    Rng rng(43);
    std::vector<double> weights{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        counts[rng.discrete(weights)]++;
    EXPECT_NEAR(counts[0], n * 0.1, n * 0.01);
    EXPECT_NEAR(counts[1], n * 0.3, n * 0.015);
    EXPECT_NEAR(counts[2], n * 0.6, n * 0.015);
}

TEST(Rng, ForkStreamsAreIndependentAndDeterministic)
{
    Rng parent1(99), parent2(99);
    Rng childA = parent1.fork();
    Rng childB = parent2.fork();
    // Same parent state -> same child.
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(childA.u64(), childB.u64());
    // Child differs from a fresh second fork.
    Rng childC = parent1.fork();
    int same = 0;
    Rng childA2 = Rng(0); // placeholder to silence unused warnings
    (void)childA2;
    Rng childACopy = parent2.fork();
    for (int i = 0; i < 32; ++i)
        same += (childC.u64() == childB.u64());
    EXPECT_LT(same, 2);
    (void)childACopy;
}

TEST(Rng, ExponentialTimePositive)
{
    Rng rng(47);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.exponentialTime(usec(10)), 0);
}

TEST(Rng, ExponentialTimeMean)
{
    Rng rng(53);
    const Time mean = usec(100);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.exponentialTime(mean));
    EXPECT_NEAR(sum / n, static_cast<double>(mean),
                static_cast<double>(mean) * 0.02);
}

} // namespace
} // namespace tpv
