/** @file Tests for the worker pool and the single-tier server path:
 *  a one-tier ServiceGraph, as MemcachedServer and SyntheticServer
 *  build it. */

#include "svc/topology.hh"
#include "svc/worker_pool.hh"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/simulator.hh"

namespace tpv {
namespace svc {
namespace {

hw::HwConfig
serverConfig(bool smt = false)
{
    hw::HwConfig c;
    c.cores = 4;
    c.smt = smt;
    c.cstates = {hw::CState::C0};
    c.tickless = true;
    c.irqWork = usec(1);
    return c;
}

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

/** Fixed-service-time test server: one serverTier() tier. */
class FixedServer : public ServiceGraph
{
  public:
    FixedServer(Simulator &sim, hw::Machine &machine, net::Link &replyLink,
                net::Endpoint &client, int workers, Rng rng,
                double runVariability = 0.0)
        : ServiceGraph(sim, replyLink, client, rng, runVariability)
    {
        TierParams p = serverTier(workers);
        p.work = fixedWork(usec(10));
        p.responseBytes = 64;
        setEntry(addTier(machine, std::move(p)));
    }
};

struct Rig
{
    Simulator sim;
    hw::Machine machine;
    net::Link link;
    ClientSink client;
    FixedServer server;

    explicit Rig(bool smt = false, int workers = 4)
        : machine(sim, serverConfig(smt)),
          link(sim, Rng(1), net::Link::Params{0, 0.0, 10.0}),
          client(sim),
          server(sim, machine, link, client, workers, Rng(2))
    {
    }
};

TEST(WorkerPool, HashesConnectionsToWorkers)
{
    Simulator sim;
    hw::Machine m(sim, serverConfig());
    WorkerPool pool(m, 4);
    EXPECT_EQ(pool.workerFor(0), 0);
    EXPECT_EQ(pool.workerFor(5), 1);
    EXPECT_EQ(pool.workerFor(7), 3);
}

TEST(WorkerPool, IrqThreadIsWorkerThreadWithoutSmt)
{
    Simulator sim;
    hw::Machine m(sim, serverConfig(false));
    WorkerPool pool(m, 4);
    EXPECT_EQ(pool.irqThreadIndex(2), 2u);
}

TEST(WorkerPool, IrqThreadIsSiblingWithSmt)
{
    Simulator sim;
    hw::Machine m(sim, serverConfig(true));
    WorkerPool pool(m, 4);
    // Sibling threads live at coreIdx + coreCount.
    EXPECT_EQ(pool.irqThreadIndex(2), 2u + 4u);
}

TEST(WorkerPool, OffsetPoolsUseLaterCores)
{
    Simulator sim;
    hw::Machine m(sim, serverConfig());
    WorkerPool pool(m, 2, 2); // cores 2..3
    EXPECT_EQ(&pool.serviceThread(0), &m.core(2).thread(0));
    EXPECT_EQ(&pool.serviceThread(1), &m.core(3).thread(0));
}

TEST(WorkerPoolDeathTest, RejectsOversizedPool)
{
    Simulator sim;
    hw::Machine m(sim, serverConfig());
    EXPECT_EXIT(WorkerPool(m, 5), ::testing::ExitedWithCode(1),
                "does not fit");
}

TEST(SingleTierServer, ServesRequestAndReplies)
{
    Rig rig;
    net::Message req;
    req.id = 7;
    req.conn = 1;
    req.appSendTime = 0;
    rig.server.onMessage(req);
    rig.sim.run();

    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_EQ(rig.client.responses[0].id, 7u);
    EXPECT_TRUE(rig.client.responses[0].isResponse);
    // irq 1us + service 10us + tx 0.5us + 64B serialization (51ns).
    EXPECT_EQ(rig.client.at[0], usec(1) + usec(10) + nsec(500) + 51);
    EXPECT_EQ(rig.server.stats().requestsReceived, 1u);
    EXPECT_EQ(rig.server.stats().responsesSent, 1u);
}

TEST(SingleTierServer, QueueingDelaysSecondRequestOnSameWorker)
{
    Rig rig;
    net::Message a, b;
    a.conn = 0;
    b.conn = 4; // same worker (4 % 4 == 0)
    rig.server.onMessage(a);
    rig.server.onMessage(b);
    rig.sim.run();
    ASSERT_EQ(rig.client.at.size(), 2u);
    // Second response roughly one service time after the first.
    EXPECT_GE(rig.client.at[1] - rig.client.at[0], usec(10));
}

TEST(SingleTierServer, ParallelWorkersServeConcurrently)
{
    Rig rig;
    net::Message a, b;
    a.conn = 0;
    b.conn = 1; // different worker
    rig.server.onMessage(a);
    rig.server.onMessage(b);
    rig.sim.run();
    ASSERT_EQ(rig.client.at.size(), 2u);
    EXPECT_EQ(rig.client.at[0], rig.client.at[1]);
}

TEST(SingleTierServer, SmtSendsIrqWorkToSibling)
{
    Rig rig(true);
    net::Message req;
    req.conn = 1;
    rig.server.onMessage(req);
    rig.sim.run();
    // IRQ work ran on the sibling (thread 1 of core 1), service on
    // thread 0.
    EXPECT_EQ(rig.machine.core(1).thread(1).tasksCompleted(), 1u);
    EXPECT_EQ(rig.machine.core(1).thread(0).tasksCompleted(), 1u);
}

TEST(SingleTierServer, ServiceWorkDispatchedAccumulates)
{
    Rig rig;
    for (int i = 0; i < 5; ++i) {
        net::Message req;
        req.conn = static_cast<std::uint32_t>(i);
        rig.server.onMessage(req);
    }
    rig.sim.run();
    EXPECT_EQ(rig.server.stats().serviceWorkDispatched, 5 * usec(10));
}

TEST(SingleTierServer, EnvFactorScalesServiceTime)
{
    Simulator sim;
    hw::Machine m(sim, serverConfig());
    net::Link link(sim, Rng(1), net::Link::Params{0, 0.0, 10.0});
    ClientSink client(sim);
    // Large runVariability so the factor differs measurably from 1.
    FixedServer server(sim, m, link, client, 4, Rng(99), 0.3);
    EXPECT_NE(server.envFactor(), 1.0);
    EXPECT_GT(server.envFactor(), 0.2);
    EXPECT_LT(server.envFactor(), 3.0);

    net::Message req;
    server.onMessage(req);
    sim.run();
    ASSERT_EQ(client.at.size(), 1u);
    const double expected = 1000.0 + server.envFactor() * 10000.0 +
                            500.0 + 51.0; // irq+svc+tx+serialization ns
    EXPECT_NEAR(static_cast<double>(client.at[0]), expected, 2.0);
}

} // namespace
} // namespace svc
} // namespace tpv
