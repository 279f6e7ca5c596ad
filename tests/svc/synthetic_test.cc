/** @file Tests for the synthetic tunable-latency service. */

#include "svc/synthetic.hh"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hh"

namespace tpv {
namespace svc {
namespace {

hw::HwConfig
serverCfg()
{
    hw::HwConfig c = hw::HwConfig::serverBaseline();
    c.cstates = {hw::CState::C0};
    return c;
}

struct ClientSink : net::Endpoint
{
    Simulator &sim;
    std::vector<Time> at;

    explicit ClientSink(Simulator &s) : sim(s) {}

    void
    onMessage(const net::Message &) override
    {
        at.push_back(sim.now());
    }
};

Time
oneRequestLatency(Time addedDelay)
{
    Simulator sim;
    hw::Machine machine(sim, serverCfg());
    net::Link link(sim, Rng(1), net::Link::Params{0, 0.0, 10.0});
    ClientSink client(sim);
    SyntheticParams p;
    p.addedDelay = addedDelay;
    p.serviceTimeSd = 0;
    p.runVariability = 0;
    SyntheticServer server(sim, machine, link, client, Rng(2), p);
    net::Message req;
    server.onMessage(req);
    sim.run();
    return client.at.at(0);
}

TEST(SyntheticServer, ZeroDelayBehavesLikeBaseService)
{
    const Time t = oneRequestLatency(0);
    // irq 3us + base 10us + tx 0.5us.
    EXPECT_NEAR(toUsec(t), 13.5, 0.5);
}

/**
 * The paper validates the synthetic service by the linear growth of
 * response time with added delay (Figure 7c): sweep the delay knob.
 */
class SyntheticLinearity : public ::testing::TestWithParam<int>
{
};

TEST_P(SyntheticLinearity, LatencyGrowsByExactlyTheAddedDelay)
{
    const Time delay = usec(GetParam());
    const Time base = oneRequestLatency(0);
    const Time withDelay = oneRequestLatency(delay);
    EXPECT_EQ(withDelay - base, delay);
}

INSTANTIATE_TEST_SUITE_P(Delays, SyntheticLinearity,
                         ::testing::Values(50, 100, 200, 300, 400));

TEST(SyntheticServer, DelayIsBusyWorkNotSleep)
{
    // The added delay must occupy the worker: a second request on the
    // same worker waits behind it.
    Simulator sim;
    hw::Machine machine(sim, serverCfg());
    net::Link link(sim, Rng(1), net::Link::Params{0, 0.0, 10.0});
    ClientSink client(sim);
    SyntheticParams p;
    p.addedDelay = usec(200);
    p.serviceTimeSd = 0;
    p.runVariability = 0;
    SyntheticServer server(sim, machine, link, client, Rng(2), p);

    net::Message a, b;
    a.conn = 0;
    b.conn = 10; // same worker (10 % 10 == 0)
    server.onMessage(a);
    server.onMessage(b);
    sim.run();
    ASSERT_EQ(client.at.size(), 2u);
    EXPECT_GE(client.at[1] - client.at[0], usec(200));
}

TEST(SyntheticServer, WorkAccountedAsServiceTime)
{
    Simulator sim;
    hw::Machine machine(sim, serverCfg());
    net::Link link(sim, Rng(1), net::Link::Params{0, 0.0, 10.0});
    ClientSink client(sim);
    SyntheticParams p;
    p.addedDelay = usec(100);
    p.serviceTimeSd = 0;
    p.runVariability = 0;
    SyntheticServer server(sim, machine, link, client, Rng(2), p);
    net::Message req;
    server.onMessage(req);
    sim.run();
    EXPECT_EQ(server.stats().serviceWorkDispatched,
              p.baseServiceTime + p.addedDelay);
}

TEST(SyntheticDeathTest, RejectsNegativeServiceTimeSd)
{
    SyntheticParams p;
    p.serviceTimeSd = -1;
    EXPECT_EXIT(
        {
            Simulator sim;
            hw::Machine machine(sim, serverCfg());
            net::Link link(sim, Rng(1));
            ClientSink client(sim);
            SyntheticServer server(sim, machine, link, client, Rng(2), p);
        },
        ::testing::ExitedWithCode(1), "SyntheticParams::serviceTimeSd");
}

TEST(SyntheticDeathTest, RejectsInvalidWorkKnobs)
{
    const auto build = [](const SyntheticParams &p) {
        Simulator sim;
        hw::Machine machine(sim, serverCfg());
        net::Link link(sim, Rng(1));
        ClientSink client(sim);
        SyntheticServer server(sim, machine, link, client, Rng(2), p);
    };
    SyntheticParams p;
    p.baseServiceTime = 0;
    EXPECT_EXIT(build(p), ::testing::ExitedWithCode(1),
                "SyntheticParams::baseServiceTime");
    p.baseServiceTime = -usec(1);
    EXPECT_EXIT(build(p), ::testing::ExitedWithCode(1),
                "SyntheticParams::baseServiceTime");
    p = SyntheticParams{};
    p.addedDelay = -usec(100);
    EXPECT_EXIT(build(p), ::testing::ExitedWithCode(1),
                "SyntheticParams::addedDelay");
}

} // namespace
} // namespace svc
} // namespace tpv
