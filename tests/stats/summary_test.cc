/** @file Unit tests for descriptive statistics. */

#include "stats/descriptive.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace tpv {
namespace stats {
namespace {

TEST(Descriptive, MeanBasic)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
    EXPECT_DOUBLE_EQ(mean({42}), 42);
}

TEST(Descriptive, StdevMatchesHandComputation)
{
    // Samples 2,4,4,4,5,5,7,9: sample sd = sqrt(32/7).
    std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_NEAR(stdev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, MinMax)
{
    std::vector<double> xs{3, -1, 7, 0};
    EXPECT_DOUBLE_EQ(minValue(xs), -1);
    EXPECT_DOUBLE_EQ(maxValue(xs), 7);
}

TEST(Descriptive, MedianOddEven)
{
    EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Descriptive, MedianUnsortedInput)
{
    EXPECT_DOUBLE_EQ(median({9, 1, 8, 2, 7}), 7);
}

TEST(Descriptive, PercentileEndpoints)
{
    std::vector<double> xs{10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
}

TEST(Descriptive, PercentileInterpolates)
{
    std::vector<double> xs{10, 20, 30, 40};
    // Type-7: rank = 0.5*(n-1) = 1.5 -> 25.
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
    EXPECT_DOUBLE_EQ(percentile(xs, 25), 17.5);
}

TEST(Descriptive, PercentileSingleSample)
{
    EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
}

TEST(Descriptive, P99OfUniformRamp)
{
    std::vector<double> xs;
    for (int i = 1; i <= 1000; ++i)
        xs.push_back(i);
    EXPECT_NEAR(percentile(xs, 99), 990.01, 0.921);
}

TEST(Descriptive, SummaryMatchesPieces)
{
    std::vector<double> xs{5, 1, 9, 3, 7, 2, 8, 4, 6, 10};
    Summary s = Summary::of(xs);
    EXPECT_EQ(s.count, 10u);
    EXPECT_DOUBLE_EQ(s.mean, mean(xs));
    EXPECT_DOUBLE_EQ(s.stdev, stdev(xs));
    EXPECT_DOUBLE_EQ(s.min, 1);
    EXPECT_DOUBLE_EQ(s.max, 10);
    EXPECT_DOUBLE_EQ(s.median, median(xs));
    EXPECT_DOUBLE_EQ(s.p99, percentile(xs, 99));
}

TEST(Descriptive, SummaryOfEmptyIsZeros)
{
    Summary s = Summary::of({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0);
    EXPECT_DOUBLE_EQ(s.p99, 0);
}

TEST(Descriptive, SortedDoesNotMutateInput)
{
    std::vector<double> xs{3, 1, 2};
    auto ys = sorted(xs);
    EXPECT_EQ(xs, (std::vector<double>{3, 1, 2}));
    EXPECT_EQ(ys, (std::vector<double>{1, 2, 3}));
}

TEST(Descriptive, SortedViewMatchesFreeFunctions)
{
    std::vector<double> xs{5, 1, 9, 3, 7, 2, 8, 4, 6, 10};
    const std::vector<double> ys = sorted(xs);
    SortedView view(ys);
    EXPECT_EQ(view.size(), xs.size());
    EXPECT_DOUBLE_EQ(view.min(), minValue(xs));
    EXPECT_DOUBLE_EQ(view.max(), maxValue(xs));
    EXPECT_DOUBLE_EQ(view.median(), median(xs));
    for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(view.percentile(p), percentile(xs, p));
}

TEST(Descriptive, SummaryOfSortedMatchesSummaryOf)
{
    std::vector<double> xs{5, 1, 9, 3, 7, 2, 8, 4, 6, 10};
    const Summary a = Summary::of(xs);
    const Summary b = Summary::ofSorted(sorted(xs));
    EXPECT_DOUBLE_EQ(a.mean, b.mean);
    EXPECT_DOUBLE_EQ(a.stdev, b.stdev);
    EXPECT_DOUBLE_EQ(a.median, b.median);
    EXPECT_DOUBLE_EQ(a.p90, b.p90);
    EXPECT_DOUBLE_EQ(a.p95, b.p95);
    EXPECT_DOUBLE_EQ(a.p99, b.p99);
}

/** Percentile must be monotone in p — property sweep. */
class PercentileMonotone : public ::testing::TestWithParam<int>
{
};

TEST_P(PercentileMonotone, NonDecreasingInP)
{
    const int seed = GetParam();
    std::vector<double> xs;
    unsigned state = static_cast<unsigned>(seed) * 2654435761u + 1u;
    for (int i = 0; i < 57; ++i) {
        state = state * 1664525u + 1013904223u;
        xs.push_back(static_cast<double>(state % 10000) / 13.0);
    }
    double prev = percentile(xs, 0);
    for (double p = 1; p <= 100; p += 1) {
        const double cur = percentile(xs, p);
        EXPECT_GE(cur, prev) << "p=" << p;
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace stats
} // namespace tpv
