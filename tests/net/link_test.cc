/** @file Tests for the network link model. */

#include "net/link.hh"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hh"

namespace tpv {
namespace net {
namespace {

struct Sink : Endpoint
{
    std::vector<Message> got;
    std::vector<Time> at;
    Simulator *sim = nullptr;

    void
    onMessage(const Message &m) override
    {
        got.push_back(m);
        at.push_back(sim->now());
    }
};

TEST(Link, DeliversAfterBaseLatency)
{
    Simulator sim;
    Link::Params p;
    p.baseLatency = usec(10);
    p.jitterFrac = 0; // deterministic
    Link link(sim, Rng(1), p);
    Sink sink;
    sink.sim = &sim;

    Message m;
    m.id = 42;
    m.bytes = 0;
    link.send(m, sink);
    sim.run();
    ASSERT_EQ(sink.got.size(), 1u);
    EXPECT_EQ(sink.got[0].id, 42u);
    EXPECT_EQ(sink.at[0], usec(10));
}

TEST(Link, SerializationDelayScalesWithBytes)
{
    Simulator sim;
    Link::Params p;
    p.baseLatency = 0;
    p.jitterFrac = 0;
    p.bandwidthGbps = 10.0;
    Link link(sim, Rng(1), p);
    Sink sink;
    sink.sim = &sim;

    Message m;
    m.bytes = 1250; // 1250B * 8b / 10Gbps = 1us
    link.send(m, sink);
    sim.run();
    EXPECT_EQ(sink.at[0], usec(1));
}

TEST(Link, JitterVariesDelay)
{
    Simulator sim;
    Link::Params p;
    p.baseLatency = usec(10);
    p.jitterFrac = 0.2;
    Link link(sim, Rng(7), p);
    Time first = link.sampleDelay(0);
    bool varied = false;
    for (int i = 0; i < 50; ++i) {
        if (link.sampleDelay(0) != first)
            varied = true;
    }
    EXPECT_TRUE(varied);
}

TEST(Link, JitterMeanNearBase)
{
    Simulator sim;
    Link::Params p;
    p.baseLatency = usec(10);
    p.jitterFrac = 0.15;
    Link link(sim, Rng(11), p);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(link.sampleDelay(0));
    EXPECT_NEAR(sum / n, static_cast<double>(usec(10)), usec(0.2));
}

TEST(Link, CountsMessagesAndDelay)
{
    Simulator sim;
    Link::Params p;
    p.baseLatency = usec(5);
    p.jitterFrac = 0;
    Link link(sim, Rng(1), p);
    Sink sink;
    sink.sim = &sim;
    for (int i = 0; i < 4; ++i)
        link.send(Message{}, sink);
    sim.run();
    EXPECT_EQ(link.messagesSent(), 4u);
    EXPECT_EQ(link.totalDelay(), 4 * usec(5));
}

TEST(Link, MessageFieldsPreserved)
{
    Simulator sim;
    Link link(sim, Rng(1));
    Sink sink;
    sink.sim = &sim;
    Message m;
    m.id = 99;
    m.conn = 3;
    m.kind = 7;
    m.isResponse = true;
    m.appSendTime = usec(123);
    link.send(m, sink);
    sim.run();
    ASSERT_EQ(sink.got.size(), 1u);
    EXPECT_EQ(sink.got[0].conn, 3u);
    EXPECT_EQ(sink.got[0].kind, 7);
    EXPECT_TRUE(sink.got[0].isResponse);
    EXPECT_EQ(sink.got[0].appSendTime, usec(123));
}

TEST(Link, DeterministicForEqualSeeds)
{
    Simulator sim;
    Link a(sim, Rng(5));
    Link b(sim, Rng(5));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.sampleDelay(100), b.sampleDelay(100));
}

TEST(LinkDeathTest, RejectsInvalidParams)
{
    Simulator sim;
    Link::Params p;
    p.jitterFrac = -0.1;
    EXPECT_EXIT(Link(sim, Rng(1), p), ::testing::ExitedWithCode(1),
                "jitterFrac");
    p = Link::Params();
    p.baseLatency = -1;
    EXPECT_EXIT(Link(sim, Rng(1), p), ::testing::ExitedWithCode(1),
                "baseLatency");
    p = Link::Params();
    p.bandwidthGbps = 0;
    EXPECT_EXIT(Link(sim, Rng(1), p), ::testing::ExitedWithCode(1),
                "bandwidthGbps");
}

} // namespace
} // namespace net
} // namespace tpv
