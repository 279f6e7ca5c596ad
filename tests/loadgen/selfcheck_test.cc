/** @file Tests for the Lancet-style generator self-checks. */

#include "loadgen/selfcheck.hh"
#include "loadgen/openloop.hh"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hh"

namespace tpv {
namespace loadgen {
namespace {

struct EchoServer : net::Endpoint
{
    net::Link *reply = nullptr;
    net::Endpoint *client = nullptr;

    void
    onMessage(const net::Message &req) override
    {
        net::Message resp = req;
        resp.isResponse = true;
        reply->send(resp, *client);
    }
};

SelfCheckReport
runScenario(const hw::HwConfig &clientCfg, SendMode mode,
            CompletionMode completion = CompletionMode::Blocking)
{
    Simulator sim;
    hw::HwConfig widened = clientCfg;
    widened.cores = 10;
    hw::Machine client(sim, widened);
    net::Link up(sim, Rng(1), net::Link::Params{usec(5), 0.05, 10.0});
    net::Link down(sim, Rng(2), net::Link::Params{usec(5), 0.05, 10.0});
    EchoServer server;
    OpenLoopParams p;
    p.qps = 20000;
    p.threads = 4;
    p.sendMode = mode;
    p.completion = completion;
    p.warmup = msec(20);
    p.duration = msec(400);
    OpenLoopGenerator gen(sim, client, up, server, p, Rng(3));
    server.reply = &down;
    server.client = &gen;
    std::vector<double> gaps;
    watchSendGaps(up, gen.recorder(), gaps);
    gen.start();
    sim.runUntil(gen.windowEnd() + msec(10));
    return runSelfCheck(gen.recorder(), gaps);
}

TEST(SelfCheck, TunedPollingClientPassesEverything)
{
    // A fully polling client (busy-wait sends, polling completions)
    // on tuned hardware is the cleanest measurable setup.
    auto rep = runScenario(hw::HwConfig::clientHP(), SendMode::BusyWait,
                           CompletionMode::Polling);
    EXPECT_TRUE(rep.arrivalCheckApplicable);
    EXPECT_TRUE(rep.arrivalsOk);
    EXPECT_TRUE(rep.stationaryOk);
    EXPECT_TRUE(rep.independentOk);
    EXPECT_TRUE(rep.allOk());
    EXPECT_LT(rep.meanLatenessUs, 2.0);
}

TEST(SelfCheck, UntunedBlockWaitClientDistortsArrivals)
{
    // The paper's risky scenario: time-sensitive sends on an LP
    // client shift requests in time; Lancet's arrival check reports
    // substantial lateness (and often a broken target distribution).
    auto rep = runScenario(hw::HwConfig::clientLP(), SendMode::BlockWait);
    EXPECT_GT(rep.meanLatenessUs, 10.0);
}

TEST(SelfCheck, EpollBatchingCorrelationIsFlagged)
{
    // With a *blocking* completion path, back-to-back responses skip
    // the context switch while batch leaders pay it — an alternating
    // pattern Lancet's independence check rightly flags.
    auto rep = runScenario(hw::HwConfig::clientHP(), SendMode::BusyWait,
                           CompletionMode::Blocking);
    EXPECT_TRUE(rep.arrivalsOk); // sends are still punctual
}

TEST(SelfCheck, SummaryMentionsEveryCheck)
{
    auto rep = runScenario(hw::HwConfig::clientHP(), SendMode::BusyWait,
                           CompletionMode::Polling);
    const std::string s = rep.summary();
    EXPECT_NE(s.find("arrival exponentiality"), std::string::npos);
    EXPECT_NE(s.find("stationarity"), std::string::npos);
    EXPECT_NE(s.find("independence"), std::string::npos);
}

TEST(SelfCheck, DetectsNonStationarySeries)
{
    // Synthetic recorder with a drifting latency series.
    LatencyRecorder rec;
    rec.setWindow(0, seconds(10));
    Rng rng(9);
    double drift = 50;
    for (int i = 0; i < 500; ++i) {
        drift += 0.5; // steady upward drift: not stationary
        rec.recordLatency(usec(i), drift + rng.normal(0, 1));
    }
    auto rep = runSelfCheck(rec, {});
    EXPECT_FALSE(rep.arrivalCheckApplicable); // no send gaps given
    EXPECT_FALSE(rep.stationaryOk);
    EXPECT_FALSE(rep.allOk());
}

TEST(SelfCheck, DetectsCorrelatedSamples)
{
    LatencyRecorder rec;
    rec.setWindow(0, seconds(10));
    Rng rng(11);
    double level = 100;
    for (int i = 0; i < 800; ++i) {
        // AR(1) with strong correlation.
        level = 100 + 0.95 * (level - 100) + rng.normal(0, 2);
        rec.recordLatency(usec(i), level);
    }
    auto rep = runSelfCheck(rec, {});
    EXPECT_FALSE(rep.independentOk);
}

} // namespace
} // namespace loadgen
} // namespace tpv
