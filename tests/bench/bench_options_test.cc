/** @file Tests for the bench drivers' environment knobs and helpers. */

#include "bench_common.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

namespace tpv {
namespace bench {
namespace {

class BenchOptionsEnv : public ::testing::Test
{
  protected:
    void SetUp() override { clear(); }
    void TearDown() override { clear(); }

    static void clear()
    {
        unsetenv("TPV_RUNS");
        unsetenv("TPV_DURATION_S");
        unsetenv("TPV_PARALLEL");
    }
};

TEST_F(BenchOptionsEnv, UnsetKeepsDefaults)
{
    const BenchOptions opt = BenchOptions::fromEnv();
    EXPECT_EQ(opt.runs, 20);
    EXPECT_EQ(opt.duration, msec(200));
    EXPECT_EQ(opt.warmup, msec(20));
    EXPECT_EQ(opt.parallelism, 0);
}

TEST_F(BenchOptionsEnv, DefaultScaleNeedsDefaultRunsAndWindow)
{
    EXPECT_TRUE(BenchOptions::fromEnv().atDefaultScale());
    setenv("TPV_RUNS", "50", 1);
    setenv("TPV_DURATION_S", "0.5", 1);
    EXPECT_TRUE(BenchOptions::fromEnv().atDefaultScale());
    setenv("TPV_DURATION_S", "0.05", 1);
    EXPECT_FALSE(BenchOptions::fromEnv().atDefaultScale());
    setenv("TPV_RUNS", "2", 1);
    setenv("TPV_DURATION_S", "0.2", 1);
    EXPECT_FALSE(BenchOptions::fromEnv().atDefaultScale());
}

TEST_F(BenchOptionsEnv, WellFormedValuesParse)
{
    setenv("TPV_RUNS", "5", 1);
    setenv("TPV_DURATION_S", "0.05", 1);
    setenv("TPV_PARALLEL", "3", 1);
    const BenchOptions opt = BenchOptions::fromEnv();
    EXPECT_EQ(opt.runs, 5);
    EXPECT_EQ(opt.duration, seconds(0.05));
    EXPECT_EQ(opt.warmup, seconds(0.05 / 10.0));
    EXPECT_EQ(opt.parallelism, 3);
}

// Each bad value exits through fatal() naming the variable; the
// death-test child sets the variable, so the parent stays clean.
void
expectRejected(const char *name, const char *value)
{
    EXPECT_EXIT(
        {
            setenv(name, value, 1);
            BenchOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), std::string("fatal: ") + name)
        << name << "=" << value;
}

TEST_F(BenchOptionsEnv, UnparsableValuesAreFatal)
{
    expectRejected("TPV_RUNS", "abc");
    expectRejected("TPV_RUNS", "");
    expectRejected("TPV_PARALLEL", "four");
    expectRejected("TPV_DURATION_S", "fast");
}

TEST_F(BenchOptionsEnv, TrailingCharactersAreFatal)
{
    expectRejected("TPV_RUNS", "10x");
    expectRejected("TPV_PARALLEL", "2 cores");
    expectRejected("TPV_DURATION_S", "0.2s");
}

TEST_F(BenchOptionsEnv, OutOfRangeValuesAreFatal)
{
    expectRejected("TPV_RUNS", "1");
    expectRejected("TPV_RUNS", "99999999999999999999");
    expectRejected("TPV_PARALLEL", "-1");
    expectRejected("TPV_DURATION_S", "0");
    expectRejected("TPV_DURATION_S", "-0.1");
    expectRejected("TPV_DURATION_S", "inf");
}

TEST(FirstRuns, KeepsTheLeadingReps)
{
    core::RepeatedResult all;
    for (int i = 0; i < 4; ++i) {
        core::RunResult run;
        run.events = 100 + static_cast<std::uint64_t>(i);
        all.runs.push_back(run);
        all.avgPerRun.push_back(10.0 + i);
        all.p99PerRun.push_back(50.0 + i);
    }
    const core::RepeatedResult two = firstRuns(all, 2);
    ASSERT_EQ(two.runs.size(), 2u);
    EXPECT_EQ(two.runs[1].events, 101u);
    EXPECT_EQ(two.avgPerRun, (std::vector<double>{10.0, 11.0}));
    EXPECT_EQ(two.p99PerRun, (std::vector<double>{50.0, 51.0}));
    EXPECT_EQ(firstRuns(all, 4).avgPerRun, all.avgPerRun);
}

TEST(FirstRunsDeathTest, RejectsMoreRepsThanTheCellRan)
{
    core::RepeatedResult one;
    one.runs.resize(1);
    one.avgPerRun = {1.0};
    one.p99PerRun = {2.0};
    EXPECT_DEATH(firstRuns(one, 2), "firstRuns");
    EXPECT_DEATH(firstRuns(one, 0), "firstRuns");
}

} // namespace
} // namespace bench
} // namespace tpv
