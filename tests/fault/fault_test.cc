/** @file Unit tests for the fault-injection subsystem: replica
 *  crashes, window clamping, plan validation, and counters. */

#include "fault/fault.hh"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/link.hh"
#include "sim/simulator.hh"
#include "svc/topology.hh"

namespace tpv {
namespace fault {
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

/** One deterministic single-tier graph: fixed 10us work, no jitter. */
struct Rig
{
    Simulator sim;
    net::Link reply;
    ClientSink client;
    svc::ServiceGraph graph;
    svc::Tier *tier = nullptr;

    explicit Rig(int replicas = 1)
        : reply(sim, Rng(1), net::Link::Params{usec(5), 0.0, 10.0}),
          client(sim), graph(sim, reply, client, Rng(3))
    {
        svc::TierParams t;
        t.name = "solo";
        t.workers = 4;
        t.work = svc::fixedWork(usec(10));
        t.responseBytes = 64;
        if (replicas == 1) {
            tier = &graph.addTier(
                graph.addMachine(hw::HwConfig::serverBaseline(), "solo"),
                std::move(t));
        } else {
            tier = &graph.addReplicatedTier(hw::HwConfig::serverBaseline(),
                                            replicas, std::move(t));
        }
        graph.setEntry(*tier);
    }

    void
    sendAt(Time when, std::uint64_t id)
    {
        sim.at(when, [this, id] {
            net::Message req;
            req.id = id;
            req.conn = static_cast<std::uint32_t>(id);
            graph.onMessage(req);
        });
    }
};

TEST(FaultPlan, Labels)
{
    EXPECT_EQ(FaultPlan::none().label(), "none");
    EXPECT_EQ(FaultPlan::replicaKill("bucket", 0, msec(30)).label(),
              "kill-r0@30ms");
    EXPECT_EQ(
        FaultPlan::replicaKill("bucket", 1, msec(30), msec(50)).label(),
        "kill-r1@30ms+50ms");
}

TEST(Injector, CrashDropsArrivalsAndRestartRecovers)
{
    Rig rig;
    // One request before the window, one inside, one after restart.
    rig.sendAt(msec(1), 1);
    rig.sendAt(msec(11), 2);
    rig.sendAt(msec(21), 3);
    Injector inj(rig.sim, rig.graph,
                 FaultPlan::replicaKill("solo", 0, msec(10), msec(10)));
    inj.arm(msec(40));
    rig.sim.run();

    ASSERT_EQ(rig.client.responses.size(), 2u);
    EXPECT_EQ(rig.client.responses[0].id, 1u);
    EXPECT_EQ(rig.client.responses[1].id, 3u);
    const svc::ServiceStats &s = rig.graph.stats();
    EXPECT_EQ(s.requestsLost, 1u);
    EXPECT_EQ(s.faultsInjected, 1u);
    ASSERT_EQ(s.tiers.size(), 1u);
    EXPECT_EQ(s.tiers[0].name, "solo");
    EXPECT_EQ(s.tiers[0].requestsLost, 1u);
    EXPECT_EQ(s.tiers[0].faultsInjected, 1u);
    EXPECT_EQ(s.tiers[0].requestsDispatched, 2u);
}

TEST(Injector, CrashErrorCompletesInFlightWork)
{
    // The request is dispatched (work drawn, queued) before the kill
    // but completes inside the window: its reply dies with the box.
    Rig rig;
    rig.sendAt(usec(100), 1);
    Injector inj(rig.sim, rig.graph,
                 FaultPlan::replicaKill("solo", 0, usec(105), msec(5)));
    inj.arm(msec(20));
    rig.sim.run();

    EXPECT_TRUE(rig.client.responses.empty());
    EXPECT_EQ(rig.graph.stats().requestsLost, 1u);
}

TEST(Injector, ExplicitWindowClampedToHorizon)
{
    // A kill asked to outlast the run restarts the replica at the
    // horizon: the window is clamped, so its end event still fires
    // inside the run instead of long after it.
    Rig rig;
    rig.sendAt(msec(20), 1); // inside the clamped window: dropped
    Injector inj(rig.sim, rig.graph,
                 FaultPlan::replicaKill("solo", 0, msec(10), msec(100)));
    inj.arm(msec(30));
    bool upAtHorizon = false;
    rig.sim.at(msec(30), [&] { upAtHorizon = rig.tier->replicaUp(0); });
    rig.sim.run();
    EXPECT_TRUE(upAtHorizon);
    EXPECT_EQ(rig.sim.now(), msec(30));
    EXPECT_TRUE(rig.client.responses.empty());
    EXPECT_EQ(rig.graph.stats().requestsLost, 1u);
}

/** Arm a one-spec plan on a fresh 2-replica rig (fatal() on an
 *  invalid spec exits the death-test child). */
void
armOne(const FaultSpec &spec)
{
    Rig rig(2);
    Injector inj(rig.sim, rig.graph, FaultPlan{spec});
    inj.arm(msec(40));
}

FaultSpec
validSpec()
{
    FaultSpec s;
    s.tier = "solo";
    s.replica = 1;
    s.start = msec(10);
    s.duration = msec(5);
    s.detectDelay = usec(500);
    return s;
}

TEST(InjectorDeathTest, RejectsUnknownTier)
{
    armOne(validSpec()); // the baseline arms cleanly
    FaultSpec s = validSpec();
    s.tier = "nowhere";
    EXPECT_EXIT(armOne(s), ::testing::ExitedWithCode(1),
                "FaultSpec::tier 'nowhere'");
}

TEST(InjectorDeathTest, RejectsReplicaOutOfRange)
{
    FaultSpec s = validSpec();
    s.replica = 2; // the rig has replicas 0 and 1
    EXPECT_EXIT(armOne(s), ::testing::ExitedWithCode(1),
                "FaultSpec::replica .*got 2");
    s.replica = -1; // a kill names one replica
    EXPECT_EXIT(armOne(s), ::testing::ExitedWithCode(1),
                "FaultSpec::replica .*got -1");
}

TEST(InjectorDeathTest, RejectsNegativeStart)
{
    FaultSpec s = validSpec();
    s.start = -1;
    EXPECT_EXIT(armOne(s), ::testing::ExitedWithCode(1),
                "FaultSpec::start");
}

TEST(InjectorDeathTest, RejectsNegativeDuration)
{
    FaultSpec s = validSpec();
    s.duration = -msec(1);
    EXPECT_EXIT(armOne(s), ::testing::ExitedWithCode(1),
                "FaultSpec::duration");
}

TEST(InjectorDeathTest, RejectsNegativeDetectDelay)
{
    FaultSpec s = validSpec();
    s.detectDelay = -usec(1);
    EXPECT_EXIT(armOne(s), ::testing::ExitedWithCode(1),
                "FaultSpec::detectDelay");
}

} // namespace
} // namespace fault
} // namespace tpv
