/**
 * @file
 * stats::sortSamples must return exactly std::sort's bytes: it sorts
 * every run's latency and lateness samples before the percentiles
 * that every golden and reference fingerprint hashes.
 */

#include "stats/sort.hh"

#include "sim/random.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace tpv {
namespace stats {
namespace {

/** Sort a copy both ways; @return whether the radix path ran. */
bool
expectSameBytes(const std::vector<double> &xs)
{
    std::vector<double> want(xs);
    std::sort(want.begin(), want.end());
    std::vector<double> got(xs);
    const bool radix = sortSamples(got);
    EXPECT_EQ(got.size(), want.size());
    if (!want.empty()) {
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(double)),
                  0)
            << "n=" << xs.size();
    }
    return radix;
}

/** Latencies as a run records them: whole nanoseconds over 1000. */
std::vector<double>
latencies(Rng &rng, std::size_t n)
{
    std::vector<double> xs(n);
    for (double &x : xs)
        x = static_cast<double>(rng.uniformInt(2000, 3'000'000)) / 1000.0;
    return xs;
}

TEST(SortSamples, LatenciesMatchStdSort)
{
    Rng rng(7);
    for (std::size_t n : {65u, 1000u, 100'000u})
        EXPECT_TRUE(expectSameBytes(latencies(rng, n)));
}

TEST(SortSamples, HeavyDuplicatesMatchStdSort)
{
    Rng rng(8);
    std::vector<double> xs(50'000);
    for (double &x : xs)
        x = static_cast<double>(rng.uniformInt(0, 9)) * 12.5;
    EXPECT_TRUE(expectSameBytes(xs));
}

TEST(SortSamples, AllEqualMatchesStdSort)
{
    EXPECT_TRUE(expectSameBytes(std::vector<double>(10'000, 41.25)));
    EXPECT_TRUE(expectSameBytes(std::vector<double>(10'000, 0.0)));
}

TEST(SortSamples, LowestByteDifferencesMatchStdSort)
{
    // Every sample shares its upper seven bytes: the sort descends to
    // the last byte.
    Rng rng(9);
    const auto base = std::bit_cast<std::uint64_t>(123.456);
    std::vector<double> xs(20'000);
    for (double &x : xs)
        x = std::bit_cast<double>(
            base + static_cast<std::uint64_t>(rng.uniformInt(0, 255)));
    EXPECT_TRUE(expectSameBytes(xs));
}

TEST(SortSamples, SubnormalsZeroAndInfinityMatchStdSort)
{
    Rng rng(10);
    const double tiny = std::numeric_limits<double>::denorm_min();
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i) {
        xs.push_back(tiny * static_cast<double>(rng.uniformInt(1, 1 << 20)));
        xs.push_back(rng.uniform01() * 1e300);
    }
    xs.push_back(0.0);
    xs.push_back(std::numeric_limits<double>::infinity());
    xs.push_back(std::numeric_limits<double>::min());
    EXPECT_TRUE(expectSameBytes(xs));
}

TEST(SortSamples, SmallAndCutoffSizesMatchStdSort)
{
    Rng rng(11);
    for (std::size_t n = 0; n <= 3; ++n)
        EXPECT_FALSE(expectSameBytes(latencies(rng, n)));
    for (std::size_t n = 60; n <= 70; ++n)
        EXPECT_EQ(expectSameBytes(latencies(rng, n)), n > 64) << n;
    // Buckets just either side of the cutoff below the top level.
    std::vector<double> xs;
    for (int v = 0; v < 4; ++v) {
        for (int i = 0; i < 63 + 2 * v; ++i)
            xs.push_back(100.0 * (v + 1) + i * 1e-9);
    }
    EXPECT_TRUE(expectSameBytes(xs));
}

TEST(SortSamples, OverOneMillionMatchesStdSort)
{
    Rng rng(12);
    EXPECT_TRUE(expectSameBytes(latencies(rng, 1'200'000)));
}

TEST(SortSamples, NegativeNegativeZeroAndNanTakeStdSort)
{
    Rng rng(13);
    std::vector<double> base = latencies(rng, 1000);
    for (double odd : {-3.5, -0.0, std::nan("")}) {
        std::vector<double> xs(base);
        xs[500] = odd;
        std::vector<double> got(xs);
        EXPECT_FALSE(sortSamples(got)) << odd;
        if (!std::isnan(odd)) {
            std::sort(xs.begin(), xs.end());
            EXPECT_EQ(std::memcmp(got.data(), xs.data(),
                                  xs.size() * sizeof(double)),
                      0);
        }
    }
}

} // namespace
} // namespace stats
} // namespace tpv
