/** @file Tests for experiment configuration and single-run execution. */

#include "core/experiment.hh"

#include <gtest/gtest.h>

namespace tpv {
namespace core {
namespace {

ExperimentConfig
quick(ExperimentConfig cfg)
{
    cfg.gen.warmup = msec(10);
    cfg.gen.duration = msec(80);
    return cfg;
}

TEST(ExperimentConfig, MemcachedFactoryMatchesPaperSetup)
{
    auto cfg = ExperimentConfig::forMemcached(100e3);
    EXPECT_EQ(cfg.workload, WorkloadKind::Memcached);
    // mutilate: open-loop, time-sensitive, in-app measurement.
    EXPECT_EQ(cfg.gen.sendMode, loadgen::SendMode::BlockWait);
    EXPECT_EQ(cfg.gen.completion, loadgen::CompletionMode::Blocking);
    EXPECT_EQ(cfg.gen.measure, loadgen::MeasurePoint::InApp);
    EXPECT_TRUE(cfg.gen.requestModel != nullptr);
    EXPECT_EQ(cfg.memcached.workers, 10);
}

TEST(ExperimentConfig, HdSearchFactoryUsesBusyWaitClient)
{
    auto cfg = ExperimentConfig::forHdSearch(1000);
    EXPECT_EQ(cfg.gen.sendMode, loadgen::SendMode::BusyWait);
    EXPECT_EQ(cfg.gen.completion, loadgen::CompletionMode::Blocking);
}

TEST(ExperimentConfig, SyntheticFactoryCarriesDelay)
{
    auto cfg = ExperimentConfig::forSynthetic(5000, usec(200));
    EXPECT_EQ(cfg.synthetic.addedDelay, usec(200));
}

TEST(RunOnce, MemcachedProducesPlausibleLatencies)
{
    auto cfg = quick(ExperimentConfig::forMemcached(50e3));
    cfg.seed = 3;
    auto r = runOnce(cfg);
    EXPECT_GT(r.received, 3000u);
    EXPECT_EQ(r.sent, r.received);
    // Network 2x5us + service ~11us + client path: tens of us.
    EXPECT_GT(r.avgUs(), 20.0);
    EXPECT_LT(r.avgUs(), 200.0);
    EXPECT_GE(r.p99Us(), r.avgUs());
}

TEST(RunOnce, DeterministicPerSeed)
{
    auto cfg = quick(ExperimentConfig::forMemcached(50e3));
    cfg.seed = 9;
    auto a = runOnce(cfg);
    auto b = runOnce(cfg);
    EXPECT_DOUBLE_EQ(a.avgUs(), b.avgUs());
    EXPECT_DOUBLE_EQ(a.p99Us(), b.p99Us());
    EXPECT_EQ(a.events, b.events);
}

TEST(RunOnce, SeedChangesResults)
{
    auto cfg = quick(ExperimentConfig::forMemcached(50e3));
    cfg.seed = 1;
    auto a = runOnce(cfg);
    cfg.seed = 2;
    auto b = runOnce(cfg);
    EXPECT_NE(a.avgUs(), b.avgUs());
}

TEST(RunOnce, LpClientAboveHpClient)
{
    auto cfg = quick(ExperimentConfig::forMemcached(50e3));
    cfg.client = hw::HwConfig::clientLP();
    auto lp = runOnce(cfg);
    cfg.client = hw::HwConfig::clientHP();
    auto hp = runOnce(cfg);
    EXPECT_GT(lp.avgUs(), 1.3 * hp.avgUs());
    // LP pays wakes; HP (idle=poll) pays none.
    EXPECT_GT(lp.clientHw.wakes, 0u);
    EXPECT_EQ(hp.clientHw.wakes, 0u);
}

TEST(RunOnce, HdSearchMillisecondScale)
{
    auto cfg = quick(ExperimentConfig::forHdSearch(1000));
    auto r = runOnce(cfg);
    EXPECT_GT(r.received, 50u);
    EXPECT_GT(r.avgUs(), 300.0);
    EXPECT_LT(r.avgUs(), 3000.0);
}

TEST(RunOnce, SocialNetworkMillisecondsScale)
{
    auto cfg = quick(ExperimentConfig::forSocialNetwork(300));
    auto r = runOnce(cfg);
    EXPECT_GT(r.received, 10u);
    EXPECT_GT(r.avgUs(), 1500.0);
    EXPECT_LT(r.avgUs(), 30000.0);
}

TEST(RunOnce, SyntheticDelayShiftsLatency)
{
    // Use the HP client so the shift is not confounded by deeper
    // client sleep states at longer response times; the residual
    // excess over 300us is worker queueing.
    auto base = quick(ExperimentConfig::forSynthetic(5e3, 0));
    base.client = hw::HwConfig::clientHP();
    base.synthetic.runVariability = 0;
    auto delayed = quick(ExperimentConfig::forSynthetic(5e3, usec(300)));
    delayed.client = hw::HwConfig::clientHP();
    delayed.synthetic.runVariability = 0;
    auto a = runOnce(base);
    auto b = runOnce(delayed);
    EXPECT_NEAR(b.avgUs() - a.avgUs(), 300.0, 60.0);
}

TEST(RunOnce, SendLatenessTrackedForBlockWaitClients)
{
    auto cfg = quick(ExperimentConfig::forMemcached(50e3));
    cfg.client = hw::HwConfig::clientLP();
    auto r = runOnce(cfg);
    EXPECT_GT(r.sendLateness.mean, 1.0);
}

} // namespace
} // namespace core
} // namespace tpv
