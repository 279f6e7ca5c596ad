/** @file Tests for the three-tier HDSearch cluster. */

#include "svc/hdsearch.hh"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hh"

namespace tpv {
namespace svc {
namespace {

struct ClientSink : net::Endpoint
{
    Simulator &sim;
    std::vector<net::Message> responses;
    std::vector<Time> at;

    explicit ClientSink(Simulator &s) : sim(s) {}

    void
    onMessage(const net::Message &m) override
    {
        responses.push_back(m);
        at.push_back(sim.now());
    }
};

struct Rig
{
    Simulator sim;
    net::Link reply;
    ClientSink client;
    HdSearchCluster cluster;

    explicit Rig(HdSearchParams params = {})
        : reply(sim, Rng(1), net::Link::Params{usec(5), 0.0, 10.0}),
          client(sim),
          cluster(sim, hw::HwConfig::serverBaseline(), reply, client,
                  Rng(2), params)
    {
    }
};

HdSearchParams
deterministicParams()
{
    HdSearchParams p;
    p.bucketSd = 0;
    p.runVariability = 0;
    p.interLink.jitterFrac = 0;
    return p;
}

TEST(HdSearch, QueryFansOutAndAggregates)
{
    Rig rig(deterministicParams());
    net::Message req;
    req.id = 1;
    req.conn = 0;
    rig.cluster.onMessage(req);
    rig.sim.run();
    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_EQ(rig.client.responses[0].id, 1u);
    EXPECT_TRUE(rig.client.responses[0].isResponse);
    EXPECT_EQ(rig.cluster.stats().requestsReceived, 1u);
    EXPECT_EQ(rig.cluster.stats().responsesSent, 1u);
}

TEST(HdSearch, LatencyInTheSubMillisecondRegime)
{
    // Paper positioning: ~10x Memcached, i.e. hundreds of us.
    Rig rig(deterministicParams());
    net::Message req;
    req.id = 1;
    rig.cluster.onMessage(req);
    rig.sim.run();
    ASSERT_EQ(rig.client.at.size(), 1u);
    const double us = toUsec(rig.client.at[0]);
    EXPECT_GT(us, 350.0);
    EXPECT_LT(us, 800.0);
}

TEST(HdSearch, FanoutWorkHitsBucketMachine)
{
    HdSearchParams p = deterministicParams();
    p.fanout = 4;
    Rig rig(p);
    net::Message req;
    rig.cluster.onMessage(req);
    rig.sim.run();
    // 4 shard scans of 300us each plus 4 x 3us RX IRQ work (SMT off:
    // the worker thread runs the softirq too).
    Time bucketWork = 0;
    for (std::size_t c = 0; c < rig.cluster.bucket().coreCount(); ++c)
        bucketWork += rig.cluster.bucket().core(c).thread(0).workCompleted();
    EXPECT_NEAR(toUsec(bucketWork), 4 * 300.0 + 4 * 3.0, 1.0);
}

TEST(HdSearch, ParallelShardsFasterThanSerialSum)
{
    Rig rig(deterministicParams());
    net::Message req;
    rig.cluster.onMessage(req);
    rig.sim.run();
    // E2E must be far below fanout * scan time (shards in parallel).
    EXPECT_LT(toUsec(rig.client.at[0]), 4 * 300.0);
}

TEST(HdSearch, DistinctQueriesTracked)
{
    Rig rig(deterministicParams());
    for (int i = 0; i < 8; ++i) {
        net::Message req;
        req.id = static_cast<std::uint64_t>(i + 1);
        req.conn = static_cast<std::uint32_t>(i);
        rig.cluster.onMessage(req);
    }
    rig.sim.run();
    EXPECT_EQ(rig.cluster.stats().responsesSent, 8u);
    // Every response id matches a request id exactly once.
    std::vector<bool> seen(9, false);
    for (const auto &r : rig.client.responses) {
        ASSERT_LT(r.id, 9u);
        EXPECT_FALSE(seen[r.id]);
        seen[r.id] = true;
    }
}

TEST(HdSearch, HigherFanoutRaisesTail)
{
    HdSearchParams narrow = deterministicParams();
    narrow.fanout = 2;
    narrow.bucketSd = usec(90);
    HdSearchParams wide = narrow;
    wide.fanout = 8;

    auto latency = [&](HdSearchParams p) {
        Rig rig(p);
        Time total = 0;
        for (int i = 0; i < 50; ++i) {
            net::Message req;
            req.id = static_cast<std::uint64_t>(i + 1);
            req.conn = static_cast<std::uint32_t>(i);
            rig.cluster.onMessage(req);
            rig.sim.run();
            total += rig.client.at.back() -
                     (rig.client.at.size() > 1
                          ? rig.client.at[rig.client.at.size() - 2]
                          : 0);
        }
        return rig.client.at.back();
    };
    // Wider fan-out waits on the max of more lognormal scans.
    EXPECT_GT(latency(wide), latency(narrow));
}

TEST(HdSearch, WideFanoutSupported)
{
    // Sub-request correlation uses explicit Message parent/shard
    // fields, so fan-outs wider than the old 4-bit id encoding work.
    HdSearchParams p = deterministicParams();
    p.fanout = 32;
    Rig rig(p);
    net::Message req;
    req.id = 1;
    rig.cluster.onMessage(req);
    rig.sim.run();
    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_EQ(rig.cluster.stats().subRequestsSent, 32u);
    EXPECT_EQ(rig.cluster.stats().responsesSent, 1u);
}

TEST(HdSearchDeathTest, FanoutMustBePositive)
{
    Simulator sim;
    net::Link reply(sim, Rng(1));
    ClientSink client(sim);
    HdSearchParams p;
    p.fanout = 0;
    EXPECT_DEATH(HdSearchCluster(sim, hw::HwConfig::serverBaseline(),
                                 reply, client, Rng(2), p),
                 "fanout");
}

TEST(HdSearchDeathTest, RejectsInvalidWorkKnobs)
{
    struct Case
    {
        void (*set)(HdSearchParams &);
        const char *field;
    };
    const Case cases[] = {
        {[](HdSearchParams &p) { p.bucketMean = 0; },
         "HdSearchParams::bucketMean"},
        {[](HdSearchParams &p) { p.bucketMean = -usec(1); },
         "HdSearchParams::bucketMean"},
        {[](HdSearchParams &p) { p.bucketSd = -1; },
         "HdSearchParams::bucketSd"},
        {[](HdSearchParams &p) { p.midPreWork = -1; },
         "HdSearchParams::midPreWork"},
        {[](HdSearchParams &p) { p.midMergeWork = -1; },
         "HdSearchParams::midMergeWork"},
        {[](HdSearchParams &p) { p.midPostWork = -1; },
         "HdSearchParams::midPostWork"},
    };
    for (const Case &c : cases) {
        HdSearchParams p;
        c.set(p);
        EXPECT_EXIT(
            {
                Simulator sim;
                net::Link reply(sim, Rng(1));
                ClientSink client(sim);
                HdSearchCluster(sim, hw::HwConfig::serverBaseline(), reply,
                                client, Rng(2), p);
            },
            ::testing::ExitedWithCode(1), c.field);
    }
}

} // namespace
} // namespace svc
} // namespace tpv
