/** @file Tests for the repetition runner. */

#include "core/runner.hh"

#include <gtest/gtest.h>

namespace tpv {
namespace core {
namespace {

ExperimentConfig
quickConfig()
{
    auto cfg = ExperimentConfig::forMemcached(50e3);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(40);
    return cfg;
}

TEST(Runner, ProducesOneResultPerRun)
{
    RunnerOptions opt;
    opt.runs = 6;
    auto r = runMany(quickConfig(), opt);
    EXPECT_EQ(r.runs.size(), 6u);
    EXPECT_EQ(r.avgPerRun.size(), 6u);
    EXPECT_EQ(r.p99PerRun.size(), 6u);
}

TEST(Runner, RunsAreIndependentSamples)
{
    RunnerOptions opt;
    opt.runs = 6;
    auto r = runMany(quickConfig(), opt);
    // Distinct seeds -> distinct values.
    for (std::size_t i = 1; i < r.avgPerRun.size(); ++i)
        EXPECT_NE(r.avgPerRun[0], r.avgPerRun[i]);
}

TEST(Runner, ParallelMatchesSerial)
{
    RunnerOptions serial;
    serial.runs = 4;
    serial.parallelism = 1;
    RunnerOptions parallel;
    parallel.runs = 4;
    parallel.parallelism = 4;
    auto a = runMany(quickConfig(), serial);
    auto b = runMany(quickConfig(), parallel);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(a.avgPerRun[i], b.avgPerRun[i]);
}

TEST(Runner, BaseSeedShiftsAllRuns)
{
    RunnerOptions o1;
    o1.runs = 3;
    o1.baseSeed = 100;
    RunnerOptions o2;
    o2.runs = 3;
    o2.baseSeed = 200;
    auto a = runMany(quickConfig(), o1);
    auto b = runMany(quickConfig(), o2);
    EXPECT_NE(a.avgPerRun[0], b.avgPerRun[0]);
}

TEST(Runner, AggregatesMatchSamples)
{
    RunnerOptions opt;
    opt.runs = 12;
    auto r = runMany(quickConfig(), opt);
    EXPECT_DOUBLE_EQ(r.medianAvg(), stats::median(r.avgPerRun));
    EXPECT_DOUBLE_EQ(r.meanAvg(), stats::mean(r.avgPerRun));
    EXPECT_DOUBLE_EQ(r.stdevAvg(), stats::stdev(r.avgPerRun));
    auto ci = r.avgCI();
    EXPECT_LE(ci.lower, r.medianAvg());
    EXPECT_GE(ci.upper, r.medianAvg());
}

TEST(Runner, CIsAreNonDegenerate)
{
    RunnerOptions opt;
    opt.runs = 12;
    auto r = runMany(quickConfig(), opt);
    auto ci = r.avgCI();
    EXPECT_LT(ci.lower, ci.upper);
}

TEST(Runner, ZeroRunsIsAConfigurationError)
{
    // A caller's bad option exits through fatal(), not an abort.
    RunnerOptions opt;
    opt.runs = 0;
    EXPECT_EXIT(runMany(quickConfig(), opt), ::testing::ExitedWithCode(1),
                "runs must be >= 1, got 0");
}

} // namespace
} // namespace core
} // namespace tpv
