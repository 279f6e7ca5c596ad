/** @file Tests for the Social Network application model. */

#include "svc/socialnet.hh"

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

SocialNetworkParams
deterministicParams()
{
    SocialNetworkParams p;
    for (auto &s : p.stages)
        s.workSd = 0;
    p.loopback.jitterFrac = 0;
    p.runVariability = 0;
    return p;
}

struct Rig
{
    Simulator sim;
    net::Link reply;
    ClientSink client;
    SocialNetworkApp app;

    explicit Rig(SocialNetworkParams params)
        : reply(sim, Rng(1), net::Link::Params{usec(5), 0.0, 10.0}),
          client(sim),
          app(sim, hw::HwConfig::serverBaseline(), reply, client, Rng(2),
              params)
    {
    }
};

TEST(SocialNetwork, RequestTraversesAllStages)
{
    Rig rig(deterministicParams());
    net::Message req;
    req.id = 5;
    rig.app.onMessage(req);
    rig.sim.run();
    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_EQ(rig.client.responses[0].id, 5u);
    EXPECT_TRUE(rig.client.responses[0].isResponse);
}

TEST(SocialNetwork, LatencyInMillisecondRegime)
{
    // read-user-timeline: ~2-3ms at low load (Figure 6b).
    Rig rig(deterministicParams());
    net::Message req;
    rig.app.onMessage(req);
    rig.sim.run();
    const double ms = toMsec(rig.client.at[0]);
    EXPECT_GT(ms, 1.5);
    EXPECT_LT(ms, 4.0);
}

TEST(SocialNetwork, StageWorkSumsToExpectedTotal)
{
    SocialNetworkParams p = deterministicParams();
    Rig rig(p);
    net::Message req;
    rig.app.onMessage(req);
    rig.sim.run();
    Time expected = 0;
    for (const auto &s : p.stages)
        expected += s.workMean;
    EXPECT_EQ(rig.app.stats().serviceWorkDispatched, expected);
}

TEST(SocialNetwork, StoragePoolSharedAcrossReads)
{
    // Three sequential storage reads must run on the storage pool
    // cores (4..6), not the frontend's.
    SocialNetworkParams p = deterministicParams();
    Rig rig(p);
    net::Message req;
    rig.app.onMessage(req);
    rig.sim.run();
    Time storageWork = 0;
    for (std::size_t c = 4; c <= 6; ++c)
        storageWork += rig.app.machine().core(c).thread(0).workCompleted();
    // 3 reads of 450us plus their 3us RX IRQ work each (SMT off).
    EXPECT_EQ(storageWork, 3 * usec(450) + 3 * usec(3));
}

TEST(SocialNetwork, ConcurrentRequestsQueueOnStages)
{
    SocialNetworkParams p = deterministicParams();
    Rig rig(p);
    // Saturate the 2-wide frontend with 6 simultaneous requests on
    // conns hashing to the same pool slots.
    for (int i = 0; i < 6; ++i) {
        net::Message req;
        req.id = static_cast<std::uint64_t>(i + 1);
        req.conn = 0;
        rig.app.onMessage(req);
    }
    rig.sim.run();
    ASSERT_EQ(rig.client.at.size(), 6u);
    // The last completion reflects pipeline queueing beyond a single
    // pass.
    EXPECT_GT(rig.client.at.back(), rig.client.at.front());
}

TEST(SocialNetwork, CountsRequestsOncePerEntry)
{
    Rig rig(deterministicParams());
    for (int i = 0; i < 3; ++i) {
        net::Message req;
        req.id = static_cast<std::uint64_t>(i);
        req.conn = static_cast<std::uint32_t>(i);
        rig.app.onMessage(req);
    }
    rig.sim.run();
    // Stage hops must not double-count requestsReceived.
    EXPECT_EQ(rig.app.stats().requestsReceived, 3u);
    EXPECT_EQ(rig.app.stats().responsesSent, 3u);
}

TEST(SocialNetworkDeathTest, RejectsEmptyStages)
{
    SocialNetworkParams p = deterministicParams();
    p.stages.clear();
    EXPECT_EXIT(Rig{p}, ::testing::ExitedWithCode(1),
                "SocialNetworkParams::stages must not be empty");
}

TEST(SocialNetworkDeathTest, RejectsInvalidStageWork)
{
    // The message names the field and the stage it belongs to.
    SocialNetworkParams p = deterministicParams();
    p.stages[1].workMean = 0;
    EXPECT_EXIT(Rig{p}, ::testing::ExitedWithCode(1),
                "SocialStage::workMean of stage 'user-timeline'");
    p = deterministicParams();
    p.stages[2].workMean = -usec(1);
    EXPECT_EXIT(Rig{p}, ::testing::ExitedWithCode(1),
                "SocialStage::workMean of stage 'post-storage-1'");
    p = deterministicParams();
    p.stages[0].workSd = -1;
    EXPECT_EXIT(Rig{p}, ::testing::ExitedWithCode(1),
                "SocialStage::workSd of stage 'frontend'");
}

} // namespace
} // namespace svc
} // namespace tpv
