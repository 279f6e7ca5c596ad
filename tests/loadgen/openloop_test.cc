/** @file Tests for the open-loop generator's measurement behaviour. */

#include "loadgen/openloop.hh"

#include <cmath>

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "stats/descriptive.hh"

namespace tpv {
namespace loadgen {
namespace {

/** Server stub replying after a fixed simulated service time. */
struct DelayServer : net::Endpoint
{
    Simulator *sim = nullptr;
    net::Link *reply = nullptr;
    net::Endpoint *client = nullptr;
    Time serviceTime = usec(10);
    std::uint64_t served = 0;
    // Responses park here so the timer event captures an index, not
    // the whole message (the production Link does the same).
    SlotPool<net::Message> pending;

    void
    onMessage(const net::Message &req) override
    {
        ++served;
        net::Message resp = req;
        resp.isResponse = true;
        const std::uint32_t idx = pending.acquire(resp);
        sim->schedule(serviceTime, [this, idx] {
            reply->send(pending.take(idx), *client);
        });
    }
};

struct Rig
{
    Simulator sim;
    hw::Machine client;
    net::Link up;
    net::Link down;
    DelayServer server;
    OpenLoopGenerator gen;

    Rig(OpenLoopParams params, hw::HwConfig clientCfg,
        std::uint64_t seed = 21)
        : client(sim, clientCfg),
          up(sim, Rng(1), net::Link::Params{usec(5), 0.0, 10.0}),
          down(sim, Rng(2), net::Link::Params{usec(5), 0.0, 10.0}),
          gen(sim, client, up, server, params, Rng(seed))
    {
        server.sim = &sim;
        server.reply = &down;
        server.client = &gen;
    }

    void
    run()
    {
        gen.start();
        sim.runUntil(gen.windowEnd() + msec(10));
    }
};

OpenLoopParams
baseParams()
{
    OpenLoopParams p;
    p.qps = 10000;
    p.threads = 4;
    p.warmup = msec(20);
    p.duration = msec(200);
    return p;
}

TEST(OpenLoop, EveryRequestGetsAResponse)
{
    Rig rig(baseParams(), hw::HwConfig::clientHP());
    rig.run();
    EXPECT_EQ(rig.gen.recorder().sent(), rig.gen.recorder().received());
    EXPECT_GT(rig.gen.recorder().sent(), 1000u);
}

TEST(OpenLoop, WarmupSamplesExcluded)
{
    Rig rig(baseParams(), hw::HwConfig::clientHP());
    rig.run();
    // Recorded latencies only cover the measurement window.
    const double windowFrac =
        toSec(msec(200)) / toSec(msec(220));
    const auto recorded =
        static_cast<double>(rig.gen.recorder().latencies().size());
    const auto sent = static_cast<double>(rig.gen.recorder().sent());
    EXPECT_NEAR(recorded / sent, windowFrac, 0.05);
}

TEST(OpenLoop, HpClientMeasuresNearTrueLatency)
{
    // True e2e: 5us up + 10us service + 5us down = 20us, plus the
    // client software path (irq + ctx + parse at turbo speed).
    Rig rig(baseParams(), hw::HwConfig::clientHP());
    rig.run();
    const auto s = rig.gen.recorder().latencySummary();
    EXPECT_GT(s.mean, 20.0);
    EXPECT_LT(s.mean, 50.0);
}

TEST(OpenLoop, LpClientInflatesMeasuredLatency)
{
    Rig hp(baseParams(), hw::HwConfig::clientHP());
    hp.run();
    Rig lp(baseParams(), hw::HwConfig::clientLP());
    lp.run();
    const double hpMean = hp.gen.recorder().latencySummary().mean;
    const double lpMean = lp.gen.recorder().latencySummary().mean;
    // Finding 1: the untuned client measures substantially higher
    // end-to-end latency for the same service.
    EXPECT_GT(lpMean, 1.5 * hpMean);
}

TEST(OpenLoop, NicMeasurementPointExcludesClientOverhead)
{
    OpenLoopParams inApp = baseParams();
    OpenLoopParams atNic = baseParams();
    atNic.measure = MeasurePoint::Nic;
    Rig a(inApp, hw::HwConfig::clientLP());
    a.run();
    Rig b(atNic, hw::HwConfig::clientLP());
    b.run();
    const double inAppMean = a.gen.recorder().latencySummary().mean;
    const double nicMean = b.gen.recorder().latencySummary().mean;
    // Hardware timestamping removes the wake + context switch + parse
    // from the measurement (Lancet's motivation).
    EXPECT_LT(nicMean, inAppMean - 10.0);
    EXPECT_NEAR(nicMean, 20.0, 3.0);
}

TEST(OpenLoop, KernelMeasurementPointBetweenNicAndApp)
{
    OpenLoopParams pk = baseParams();
    pk.measure = MeasurePoint::Kernel;
    OpenLoopParams pn = baseParams();
    pn.measure = MeasurePoint::Nic;
    Rig k(pk, hw::HwConfig::clientLP());
    k.run();
    Rig n(pn, hw::HwConfig::clientLP());
    n.run();
    Rig a(baseParams(), hw::HwConfig::clientLP());
    a.run();
    const double kernelMean = k.gen.recorder().latencySummary().mean;
    const double nicMean = n.gen.recorder().latencySummary().mean;
    const double appMean = a.gen.recorder().latencySummary().mean;
    EXPECT_GT(kernelMean, nicMean);
    EXPECT_LT(kernelMean, appMean);
}

TEST(OpenLoop, BusyWaitWithBlockingCompletionsStillExposedToLp)
{
    // The MicroSuite client shape: spinning send loops + blocking
    // completion threads. Sends stay punctual, but the completion
    // path sleeps — so the LP configuration still inflates
    // measurements (Figure 4's residual gap).
    OpenLoopParams p = baseParams();
    p.sendMode = SendMode::BusyWait;
    p.completion = CompletionMode::Blocking;
    Rig lp(p, hw::HwConfig::clientLP());
    lp.run();
    Rig hp(p, hw::HwConfig::clientHP());
    hp.run();
    EXPECT_LT(lp.gen.recorder().latenessSummary().mean, 2.0);
    EXPECT_GT(lp.gen.recorder().latencySummary().mean,
              hp.gen.recorder().latencySummary().mean + 10.0);
}

TEST(OpenLoop, PollingCompletionAvoidsWakeCosts)
{
    OpenLoopParams blocking = baseParams();
    OpenLoopParams polling = baseParams();
    polling.sendMode = SendMode::BusyWait;
    polling.completion = CompletionMode::Polling;
    Rig b(blocking, hw::HwConfig::clientLP());
    b.run();
    Rig p(polling, hw::HwConfig::clientLP());
    p.run();
    // A fully polling client on LP hardware still measures accurately:
    // the core never sleeps.
    EXPECT_LT(p.gen.recorder().latencySummary().mean,
              b.gen.recorder().latencySummary().mean - 10.0);
}

TEST(OpenLoop, DeterministicForEqualSeeds)
{
    Rig a(baseParams(), hw::HwConfig::clientLP(), 77);
    a.run();
    Rig b(baseParams(), hw::HwConfig::clientLP(), 77);
    b.run();
    EXPECT_EQ(a.gen.recorder().sent(), b.gen.recorder().sent());
    EXPECT_EQ(a.gen.recorder().latencySummary().mean,
              b.gen.recorder().latencySummary().mean);
}

TEST(OpenLoop, DifferentSeedsDiffer)
{
    Rig a(baseParams(), hw::HwConfig::clientLP(), 77);
    a.run();
    Rig b(baseParams(), hw::HwConfig::clientLP(), 78);
    b.run();
    EXPECT_NE(a.gen.recorder().latencySummary().mean,
              b.gen.recorder().latencySummary().mean);
}

TEST(OpenLoopDeathTest, RejectsTooManyThreads)
{
    Simulator sim;
    hw::HwConfig cfg = hw::HwConfig::clientHP(); // 10 cores
    hw::Machine client(sim, cfg);
    net::Link up(sim, Rng(1));
    DelayServer server;
    OpenLoopParams p;
    p.threads = 11;
    EXPECT_EXIT(OpenLoopGenerator(sim, client, up, server, p, Rng(1)),
                ::testing::ExitedWithCode(1), "client threads");
}

/** Exits 1 with a message naming @p field when @p p is rejected. */
void
expectRejected(const OpenLoopParams &p, const char *field)
{
    Simulator sim;
    hw::Machine client(sim, hw::HwConfig::clientHP());
    net::Link up(sim, Rng(1));
    DelayServer server;
    EXPECT_EXIT(OpenLoopGenerator(sim, client, up, server, p, Rng(1)),
                ::testing::ExitedWithCode(1), field);
}

TEST(OpenLoopDeathTest, RejectsNonPositiveDuration)
{
    OpenLoopParams p;
    p.duration = 0;
    expectRejected(p, "OpenLoopParams::duration");
    p.duration = -msec(1);
    expectRejected(p, "OpenLoopParams::duration");
}

TEST(OpenLoopDeathTest, RejectsNegativeWarmup)
{
    OpenLoopParams p;
    p.warmup = -msec(1);
    expectRejected(p, "OpenLoopParams::warmup");
}

TEST(OpenLoopDeathTest, RejectsNanInfiniteOrNonPositiveQps)
{
    OpenLoopParams p;
    p.qps = std::nan("");
    expectRejected(p, "OpenLoopParams::qps");
    p.qps = HUGE_VAL;
    expectRejected(p, "OpenLoopParams::qps");
    p.qps = 0;
    expectRejected(p, "OpenLoopParams::qps");
}

TEST(OpenLoopDeathTest, RejectsPerThreadRateAbove1e9)
{
    // 2e9 requests/s on one thread rounds the mean gap to 0 ns.
    OpenLoopParams p;
    p.threads = 1;
    p.qps = 2e9;
    expectRejected(p, "OpenLoopParams::qps");
    p.threads = 2;
    p.qps = 4.2e9;
    expectRejected(p, "OpenLoopParams::qps");
    // Exactly 1e9 per thread is a 1 ns mean gap, which is accepted.
    Simulator sim;
    hw::Machine client(sim, hw::HwConfig::clientHP());
    net::Link up(sim, Rng(1));
    DelayServer server;
    p.qps = 2e9;
    OpenLoopGenerator gen(sim, client, up, server, p, Rng(1));
    EXPECT_EQ(gen.params().qps, 2e9);
}

TEST(OpenLoopDeathTest, RejectsNegativeSendOrParseWork)
{
    OpenLoopParams p;
    p.sendWork = -1;
    expectRejected(p, "OpenLoopParams::sendWork");
    p.sendWork = usec(1);
    p.parseWork = -usec(1);
    expectRejected(p, "OpenLoopParams::parseWork");
}

TEST(OpenLoopDeathTest, RejectsNonPositiveThreads)
{
    OpenLoopParams p;
    p.threads = 0;
    expectRejected(p, "OpenLoopParams::threads");
    p.threads = -1;
    expectRejected(p, "OpenLoopParams::threads");
}

} // namespace
} // namespace loadgen
} // namespace tpv
