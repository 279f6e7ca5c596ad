/** @file Tests for the keyed-workload model: Zipf sampler statistics
 *  and the deterministic per-key value sizes. */

#include "svc/keyspace.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace tpv {
namespace svc {
namespace {

TEST(ZipfSampler, RanksStayInRange)
{
    const ZipfSampler zipf(100, 0.99);
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf(rng), 100u);
}

TEST(ZipfSampler, PmfSumsToOne)
{
    const ZipfSampler zipf(1000, 0.99);
    double sum = 0;
    for (std::uint64_t k = 0; k < 1000; ++k)
        sum += zipf.pmf(k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSampler, EmpiricalTopRanksMatchAnalyticPmf)
{
    // The acceptance check: empirical frequencies of the top ranks
    // against the analytic Zipf pmf. 200K draws put the standard
    // error of the hottest rank (p ~ 0.13 at n=1000, s=0.99) around
    // 0.00075, so a 0.005 absolute tolerance is ~6 sigma.
    const std::uint64_t n = 1000;
    const ZipfSampler zipf(n, 0.99);
    const int draws = 200000;
    std::vector<int> counts(n, 0);
    Rng rng(42);
    for (int i = 0; i < draws; ++i)
        ++counts[zipf(rng)];
    for (std::uint64_t k = 0; k < 10; ++k) {
        const double empirical =
            static_cast<double>(counts[k]) / draws;
        EXPECT_NEAR(empirical, zipf.pmf(k), 0.005)
            << "rank " << k;
    }
}

TEST(ZipfSampler, HigherSkewConcentratesMass)
{
    const std::uint64_t n = 10000;
    const ZipfSampler mild(n, 0.7);
    const ZipfSampler steep(n, 1.2);
    const int draws = 50000;
    auto top100Share = [&](const ZipfSampler &z, std::uint64_t seed) {
        Rng rng(seed);
        int top = 0;
        for (int i = 0; i < draws; ++i) {
            if (z(rng) < 100)
                ++top;
        }
        return static_cast<double>(top) / draws;
    };
    EXPECT_GT(top100Share(steep, 3), top100Share(mild, 3) + 0.1);
}

TEST(ZipfSampler, NonPositiveSkewIsUniform)
{
    const std::uint64_t n = 64;
    const ZipfSampler zipf(n, 0.0);
    const int draws = 64000;
    std::vector<int> counts(n, 0);
    Rng rng(5);
    for (int i = 0; i < draws; ++i)
        ++counts[zipf(rng)];
    // Expected 1000 per rank; 4 sigma is ~125.
    for (std::uint64_t k = 0; k < n; ++k)
        EXPECT_NEAR(counts[k], 1000, 200) << "rank " << k;
}

TEST(ZipfSampler, DeterministicGivenSeed)
{
    const ZipfSampler zipf(1 << 20, 0.99);
    Rng a(11), b(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(zipf(a), zipf(b));
}

TEST(KeyspaceModel, ValueBytesForKeyIsDeterministic)
{
    const KeyspaceModel etc;
    for (std::uint64_t k : {0ull, 1ull, 17ull, 12345ull, (1ull << 31)})
        EXPECT_EQ(etc.valueBytesForKey(k), etc.valueBytesForKey(k));
}

TEST(KeyspaceModel, ValueBytesForKeyRespectsClampAndFloor)
{
    const KeyspaceModel etc;
    double mean = 0;
    const int n = 20000;
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint32_t v = etc.valueBytesForKey(k);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, static_cast<std::uint32_t>(etc.valueMax));
        mean += v;
    }
    mean /= n;
    // GPD(mu=15, sigma=214, xi=0.35) has mean mu + sigma/(1-xi) ~ 344
    // before the 8 KiB clamp; the clamp pulls it down somewhat.
    EXPECT_GT(mean, 100.0);
    EXPECT_LT(mean, 500.0);
}

TEST(KeyspaceModel, OpMixMatchesGetFraction)
{
    const KeyspaceModel etc;
    Rng rng(9);
    int gets = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (etc.sampleOp(rng) == MemcachedOp::Get)
            ++gets;
    }
    EXPECT_NEAR(static_cast<double>(gets) / n, etc.getFraction, 0.005);
}

} // namespace
} // namespace svc
} // namespace tpv
