/** @file Tests for inter-arrival schedule generation (open loop). */

#include "loadgen/openloop.hh"
#include "loadgen/selfcheck.hh"
#include "stats/normality.hh"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hh"

namespace tpv {
namespace loadgen {
namespace {

/** Immediately-replying server stub. */
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

struct Rig
{
    Simulator sim;
    hw::Machine client;
    net::Link up;
    net::Link down;
    EchoServer server;
    OpenLoopGenerator gen;

    explicit Rig(OpenLoopParams params, std::uint64_t seed = 11)
        : client(sim, hw::HwConfig::clientHP()),
          up(sim, Rng(1), net::Link::Params{usec(5), 0.0, 10.0}),
          down(sim, Rng(2), net::Link::Params{usec(5), 0.0, 10.0}),
          gen(sim, client, up, server, params, Rng(seed))
    {
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
    p.qps = 20000;
    p.threads = 4;
    p.warmup = msec(20);
    p.duration = msec(400);
    return p;
}

TEST(Interarrival, ThroughputMatchesOfferedLoad)
{
    Rig rig(baseParams());
    rig.run();
    const double sent = static_cast<double>(rig.gen.recorder().sent());
    // ~20K qps over the warmup+duration window.
    const double expected = 20000.0 * toSec(msec(420));
    EXPECT_NEAR(sent, expected, expected * 0.05);
}

TEST(Interarrival, ExponentialGapsPassAndersonDarling)
{
    // A tuned (HP) busy-wait client must realise the target Poisson
    // process: Lancet's exponentiality check should pass.
    OpenLoopParams p = baseParams();
    p.sendMode = SendMode::BusyWait;
    Rig rig(p);
    std::vector<double> gaps;
    watchSendGaps(rig.up, rig.gen.recorder(), gaps);
    rig.run();
    ASSERT_GT(gaps.size(), 1000u);
    auto ad = stats::andersonDarlingExponential(gaps);
    EXPECT_TRUE(ad.exponentialAt5());
}

TEST(Interarrival, SendGapsCoverEveryInWindowSend)
{
    // 4 connections at 5K/s each send ~100 requests during the 20 ms
    // warmup, so every send inside the window follows an earlier one
    // on its connection: one gap per recorded lateness. A warmup send
    // adding a gap would make the gaps outnumber the lateness samples.
    Rig warmed(baseParams());
    std::vector<double> gaps;
    watchSendGaps(warmed.up, warmed.gen.recorder(), gaps);
    warmed.run();
    const auto &lateness = warmed.gen.recorder().lateness();
    ASSERT_GT(lateness.size(), 1000u);
    EXPECT_EQ(gaps.size(), lateness.size());

    // Without a warmup each connection's first send opens the window
    // and has no earlier send to measure from.
    OpenLoopParams cold = baseParams();
    cold.warmup = 0;
    Rig coldRig(cold);
    std::vector<double> coldGaps;
    watchSendGaps(coldRig.up, coldRig.gen.recorder(), coldGaps);
    coldRig.run();
    EXPECT_EQ(coldGaps.size(),
              coldRig.gen.recorder().lateness().size() - 4);
}

TEST(Interarrival, BusyWaitSendsExactlyOnSchedule)
{
    OpenLoopParams p = baseParams();
    p.sendMode = SendMode::BusyWait;
    Rig rig(p);
    rig.run();
    const auto lateness = rig.gen.recorder().latenessSummary();
    // Only the 1us send syscall separates intent from the wire.
    EXPECT_LT(lateness.mean, 2.0);
}

TEST(Interarrival, BlockWaitOnUntunedClientDistortsSchedule)
{
    // The paper's Table III risk row: time-sensitive sends on an LP
    // client leave late by the wake path.
    OpenLoopParams p = baseParams();
    p.sendMode = SendMode::BlockWait;
    Simulator sim;
    hw::Machine lpClient(sim, hw::HwConfig::clientLP());
    net::Link up(sim, Rng(1), net::Link::Params{usec(5), 0.0, 10.0});
    net::Link down(sim, Rng(2), net::Link::Params{usec(5), 0.0, 10.0});
    EchoServer server;
    OpenLoopGenerator gen(sim, lpClient, up, server, p, Rng(3));
    server.reply = &down;
    server.client = &gen;
    gen.start();
    sim.runUntil(gen.windowEnd() + msec(10));
    // Wake exits + slow dispatch: tens of microseconds late on average.
    EXPECT_GT(gen.recorder().latenessSummary().mean, 10.0);
}

} // namespace
} // namespace loadgen
} // namespace tpv
