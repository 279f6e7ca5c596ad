/** @file Tests for the repetition runner. */

#include "core/runner.hh"

#include <cstring>
#include <utility>

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

TEST(Runner, FewerRunsArePrefixOfMore)
{
    // A repetition's seed depends only on (baseSeed, rep), so a study
    // that reads n reps of a cell may take the first n of a larger
    // run of that cell. Checked bit for bit, serial and parallel.
    auto lowPower = quickConfig();
    lowPower.client = hw::HwConfig::clientLP();
    auto smtOn = ExperimentConfig::forMemcached(200e3);
    smtOn.gen.warmup = msec(2);
    smtOn.gen.duration = msec(20);
    smtOn.server = hw::HwConfig::serverSmtOn();
    const std::pair<ExperimentConfig, int> cases[] = {{lowPower, 1},
                                                      {smtOn, 4}};
    for (const auto &[cfg, parallelism] : cases) {
        RunnerOptions few;
        few.runs = 3;
        few.parallelism = parallelism;
        RunnerOptions more = few;
        more.runs = 5;
        const auto a = runMany(cfg, few);
        const auto b = runMany(cfg, more);
        ASSERT_EQ(a.runs.size(), 3u);
        ASSERT_EQ(b.runs.size(), 5u);
        for (std::size_t i = 0; i < 3; ++i) {
            SCOPED_TRACE(testing::Message() << "parallelism "
                                            << parallelism << " rep " << i);
            EXPECT_EQ(std::memcmp(&a.avgPerRun[i], &b.avgPerRun[i],
                                  sizeof(double)), 0);
            EXPECT_EQ(std::memcmp(&a.p99PerRun[i], &b.p99PerRun[i],
                                  sizeof(double)), 0);
            EXPECT_EQ(a.runs[i].events, b.runs[i].events);
            EXPECT_EQ(a.runs[i].sent, b.runs[i].sent);
            EXPECT_EQ(a.runs[i].received, b.runs[i].received);
        }
    }
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
