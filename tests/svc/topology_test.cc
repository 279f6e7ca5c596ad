/** @file Tests for the composable service-topology layer: tier
 *  graphs, sharded fan-out, replication, and hedged requests. */

#include "svc/topology.hh"

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "sim/simulator.hh"
#include "svc/hdsearch.hh"

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

/** Deterministic HDSearch-shaped cluster: no jitter, no variance. */
HdSearchParams
deterministicParams()
{
    HdSearchParams p;
    p.bucketSd = 0;
    p.runVariability = 0;
    p.interLink.jitterFrac = 0;
    return p;
}

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

TEST(ServiceGraph, SingleTierGraphServesAndCounts)
{
    Simulator sim;
    hw::HwConfig cfg = hw::HwConfig::serverBaseline();
    net::Link reply(sim, Rng(1), net::Link::Params{usec(5), 0.0, 10.0});
    ClientSink client(sim);

    ServiceGraph graph(sim, reply, client, Rng(3));
    hw::Machine &m = graph.addMachine(cfg, "solo");
    TierParams t;
    t.name = "solo";
    t.workers = 4;
    t.work = fixedWork(usec(10));
    t.responseBytes = 64;
    Tier &tier = graph.addTier(m, std::move(t));
    graph.setEntry(tier);

    net::Message req;
    req.id = 9;
    graph.onMessage(req);
    sim.run();

    ASSERT_EQ(client.responses.size(), 1u);
    EXPECT_EQ(client.responses[0].id, 9u);
    EXPECT_TRUE(client.responses[0].isResponse);
    EXPECT_EQ(client.responses[0].bytes, 64u);
    EXPECT_EQ(client.responses[0].serviceWork, usec(10));
    EXPECT_EQ(graph.stats().requestsReceived, 1u);
    EXPECT_EQ(graph.stats().responsesSent, 1u);
    EXPECT_EQ(graph.stats().serviceWorkDispatched, usec(10));
}

TEST(Fanout, PrimaryReplicaDeterministicAndBalanced)
{
    // Same (id, shard) always picks the same replica, and across many
    // ids every replica serves a fair share of each shard.
    const int replicas = 3;
    for (int shard = 0; shard < 4; ++shard) {
        std::vector<int> hits(static_cast<std::size_t>(replicas), 0);
        for (std::uint64_t id = 0; id < 900; ++id) {
            const int r = Fanout::primaryReplica(id, shard, replicas);
            EXPECT_EQ(r, Fanout::primaryReplica(id, shard, replicas));
            ASSERT_GE(r, 0);
            ASSERT_LT(r, replicas);
            ++hits[static_cast<std::size_t>(r)];
        }
        for (int r = 0; r < replicas; ++r) {
            EXPECT_GT(hits[static_cast<std::size_t>(r)], 200);
            EXPECT_LT(hits[static_cast<std::size_t>(r)], 400);
        }
    }
}

TEST(Fanout, HedgeGoesToADifferentReplica)
{
    for (std::uint64_t id = 0; id < 64; ++id) {
        for (int shard = 0; shard < 8; ++shard) {
            EXPECT_NE(Fanout::hedgeReplica(id, shard, 2),
                      Fanout::primaryReplica(id, shard, 2));
            EXPECT_NE(Fanout::hedgeReplica(id, shard, 3),
                      Fanout::primaryReplica(id, shard, 3));
        }
    }
}

TEST(Topology, HedgeCancelledWhenShardRepliesInTime)
{
    // Scans take 300us deterministically; a 5ms hedge delay never
    // fires, and every timer is cancelled on the shard's reply.
    HdSearchParams p = deterministicParams();
    p.replicas = 2;
    p.hedgeDelay = msec(5);
    Rig rig(p);

    for (int i = 0; i < 3; ++i) {
        net::Message req;
        req.id = static_cast<std::uint64_t>(i + 1);
        req.conn = static_cast<std::uint32_t>(i);
        rig.cluster.onMessage(req);
    }
    rig.sim.run();

    const ServiceStats &s = rig.cluster.stats();
    EXPECT_EQ(s.responsesSent, 3u);
    EXPECT_EQ(s.subRequestsSent, 3u * 4u);
    EXPECT_EQ(s.hedgesSent, 0u);
    EXPECT_EQ(s.hedgesCancelled, 3u * 4u);
    EXPECT_EQ(s.duplicatesDiscarded, 0u);
    EXPECT_EQ(s.duplicateWorkDispatched, 0u);
    EXPECT_EQ(rig.cluster.fanout().inFlight(), 0u);
}

TEST(Topology, HedgeFiresAndLoserIsDiscarded)
{
    // A 1us hedge delay always fires before the 300us scan returns:
    // every shard runs twice, exactly one reply per shard is merged,
    // and the loser's scan is accounted as duplicate work.
    HdSearchParams p = deterministicParams();
    p.replicas = 2;
    p.hedgeDelay = usec(1);
    Rig rig(p);

    net::Message req;
    req.id = 1;
    rig.cluster.onMessage(req);
    rig.sim.run();

    const ServiceStats &s = rig.cluster.stats();
    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_EQ(s.responsesSent, 1u);
    EXPECT_EQ(s.hedgesSent, 4u);
    EXPECT_EQ(s.hedgesCancelled, 0u);
    EXPECT_EQ(s.duplicatesDiscarded, 4u);
    // Each discarded reply carried one full 300us scan.
    EXPECT_EQ(s.duplicateWorkDispatched, 4 * usec(300));
    // Useful (non-duplicate) work: pre + 8 scans + 4 merges + post —
    // the duplicate scans are inside serviceWorkDispatched too.
    EXPECT_EQ(s.serviceWorkDispatched - s.duplicateWorkDispatched,
              p.midPreWork + 4 * usec(300) + 4 * p.midMergeWork +
                  p.midPostWork);
    EXPECT_EQ(rig.cluster.fanout().inFlight(), 0u);
}

TEST(Topology, HedgingMasksADegradedPrimaryReplica)
{
    // Replica 0 of the leaf tier is degraded (5ms scans) while
    // replica 1 is healthy (100us). Any shard whose primary hashes to
    // replica 0 pins the whole query at ~5ms — unless hedging
    // re-issues it to the healthy backup after 300us.
    auto runAt = [](Time hedgeDelay) {
        Simulator sim;
        net::Link reply(sim, Rng(1),
                        net::Link::Params{usec(5), 0.0, 10.0});
        ClientSink client(sim);
        ServiceGraph graph(sim, reply, client, Rng(3));

        const hw::HwConfig cfg = hw::HwConfig::serverBaseline();
        TierParams pp;
        pp.name = "parent";
        pp.workers = 4;
        pp.work = fixedWork(usec(5));
        Tier &parent = graph.addTier(graph.addMachine(cfg, "parent"),
                                     std::move(pp));

        TierParams cp;
        cp.name = "leaf";
        cp.workers = 4;
        cp.responseBytes = 256;
        cp.work = [](const net::Message &m, Rng &) {
            return m.replica == 0 ? msec(5) : usec(100);
        };
        Tier &leaf = graph.addReplicatedTier(cfg, 2, std::move(cp));

        FanoutParams f;
        f.shards = 4;
        f.replicas = 2;
        f.hedgeDelay = hedgeDelay;
        f.link = net::Link::Params{usec(5), 0.0, 10.0};
        Fanout &fan = graph.addFanout(
            parent, leaf, f, [&graph](const net::Message &req) {
                net::Message resp = req;
                resp.isResponse = true;
                resp.bytes = 1024;
                graph.respond(std::move(resp));
            });
        parent.setHandler([&fan](const net::Message &req, Time) {
            fan.scatter(req);
        });
        graph.setEntry(parent);

        for (int i = 0; i < 5; ++i) {
            net::Message req;
            req.id = static_cast<std::uint64_t>(i + 1);
            req.conn = static_cast<std::uint32_t>(i);
            graph.onMessage(req);
        }
        sim.run();
        return client.at.back();
    };

    // Unhedged: some shard's primary is the degraded replica (the
    // replica hash makes all 20 primaries healthy with p ~ 1e-6), so
    // completion is pinned at the 5ms scan. Hedged: every degraded
    // shard fails over to the healthy backup within ~450us.
    EXPECT_GT(runAt(0), msec(5));
    EXPECT_LT(runAt(usec(300)), msec(2));
}

TEST(Topology, ReplicaFailoverSpreadsToBackupMachines)
{
    // One shard, two replicas, hedge always firing: the scan runs on
    // the primary replica's machine *and* on the backup's — a hedge
    // reaches an independent server, not the primary's queue.
    HdSearchParams p = deterministicParams();
    p.fanout = 1;
    p.replicas = 2;
    p.hedgeDelay = usec(1);
    Rig rig(p);

    net::Message req;
    req.id = 7;
    rig.cluster.onMessage(req);
    rig.sim.run();

    for (int replica = 0; replica < 2; ++replica) {
        Time work = 0;
        hw::Machine &m = rig.cluster.bucket(replica);
        for (std::size_t c = 0; c < m.coreCount(); ++c)
            work += m.core(c).thread(0).workCompleted();
        EXPECT_GT(work, 0) << "replica " << replica << " machine idle";
    }
    EXPECT_EQ(rig.cluster.stats().responsesSent, 1u);
    EXPECT_EQ(rig.cluster.stats().duplicatesDiscarded, 1u);
}

TEST(Topology, HedgedRunIsSeedDeterministic)
{
    // Full stochastic config (jitter, scan variance, hedging): two
    // identically seeded rigs must produce identical timelines.
    HdSearchParams p;
    p.replicas = 2;
    p.hedgeDelay = usec(400);
    auto timeline = [&] {
        Rig rig(p);
        for (int i = 0; i < 20; ++i) {
            net::Message req;
            req.id = static_cast<std::uint64_t>(i + 1);
            req.conn = static_cast<std::uint32_t>(i);
            rig.cluster.onMessage(req);
        }
        rig.sim.run();
        return rig.client.at;
    };
    EXPECT_EQ(timeline(), timeline());
}

TEST(Topology, ShardedHedgedSweepBitIdenticalAcrossParallelism)
{
    // The acceptance check: a hedged + sharded + replicated study is
    // bit-identical between serial and parallel execution.
    auto cfg = core::ExperimentConfig::forHdSearch(800);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(40);
    core::applyTopology(cfg, TopologyShape{6, 2, usec(200)});

    core::RunnerOptions serial;
    serial.runs = 4;
    serial.parallelism = 1;
    core::RunnerOptions parallel = serial;
    parallel.parallelism = 4;

    const auto a = core::runMany(cfg, serial);
    const auto b = core::runMany(cfg, parallel);
    ASSERT_EQ(a.avgPerRun.size(), b.avgPerRun.size());
    EXPECT_EQ(a.avgPerRun, b.avgPerRun);
    EXPECT_EQ(a.p99PerRun, b.p99PerRun);
    // The topology actually engaged: hedges were sent or cancelled.
    std::uint64_t hedgeActivity = 0;
    for (const auto &run : a.runs) {
        hedgeActivity += run.service.hedgesSent +
                         run.service.hedgesCancelled;
        EXPECT_EQ(run.service.subRequestsSent,
                  6 * run.service.requestsReceived);
    }
    EXPECT_GT(hedgeActivity, 0u);
}

/** Build a parent -> child fan-out edge with @p f (fatal() on an
 *  invalid configuration exits the death-test child). */
void
buildFanout(const FanoutParams &f)
{
    Simulator sim;
    net::Link reply(sim, Rng(1));
    ClientSink client(sim);
    ServiceGraph graph(sim, reply, client, Rng(3));
    const hw::HwConfig cfg = hw::HwConfig::serverBaseline();
    TierParams pp;
    pp.name = "parent";
    pp.work = fixedWork(usec(5));
    Tier &parent = graph.addTier(graph.addMachine(cfg, "parent"),
                                 std::move(pp));
    TierParams cp;
    cp.name = "leaf";
    cp.work = fixedWork(usec(10));
    Tier &leaf = graph.addReplicatedTier(cfg, 2, std::move(cp));
    graph.addFanout(parent, leaf, f, [](const net::Message &) {});
}

/** A valid hedged, retrying edge the death tests perturb one field of. */
FanoutParams
validFanout()
{
    FanoutParams f;
    f.shards = 2;
    f.replicas = 2;
    f.hedgeDelay = usec(300);
    f.traffic.retry.deadline = msec(2);
    f.traffic.retry.maxAttempts = 3;
    return f;
}

TEST(FanoutDeathTest, RejectsZeroShards)
{
    buildFanout(validFanout()); // the baseline builds cleanly
    FanoutParams f = validFanout();
    f.shards = 0;
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "FanoutParams::shards.*fanout");
}

TEST(FanoutDeathTest, RejectsReplicasOutsideOneTo255)
{
    FanoutParams f = validFanout();
    f.replicas = 256; // would wrap Message::replica and the lane bytes
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "FanoutParams::replicas .*got 256");
    f.replicas = 0;
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "FanoutParams::replicas .*got 0");
}

TEST(FanoutDeathTest, RejectsReplicasOtherThanTheChildsCount)
{
    FanoutParams f = validFanout(); // the leaf has 2 replicas
    f.replicas = 3;
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "FanoutParams::replicas must equal the replica count "
                "of tier 'leaf' \\(2\\), got 3");
}

TEST(FanoutDeathTest, RejectsMaxAttemptsOutsideOneTo255)
{
    FanoutParams f = validFanout();
    f.traffic.retry.maxAttempts = 256; // would wrap the attempt byte
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "retry.maxAttempts .*got 256");
    f.traffic.retry.maxAttempts = 0;
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "retry.maxAttempts .*got 0");
}

TEST(FanoutDeathTest, RejectsNegativeHedgeDelay)
{
    FanoutParams f = validFanout();
    f.hedgeDelay = -usec(1);
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "FanoutParams::hedgeDelay");
}

TEST(FanoutDeathTest, RejectsNegativeRetryDeadline)
{
    FanoutParams f = validFanout();
    f.traffic.retry.deadline = -msec(1);
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "retry.deadline");
}

TEST(FanoutDeathTest, RejectsNegativeBreakerThreshold)
{
    FanoutParams f = validFanout();
    f.traffic.breaker.failureThreshold = -1;
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "breaker.failureThreshold .*got -1");
}

TEST(FanoutDeathTest, RejectsNonPositiveBreakerCooldown)
{
    FanoutParams f = validFanout();
    f.traffic.breaker.cooldown = 0; // an off breaker ignores it
    buildFanout(f);
    // An on breaker with no cooldown re-admits the moment it opens.
    f.traffic.breaker.failureThreshold = 3;
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "breaker.cooldown .*got 0");
    f.traffic.breaker.cooldown = -msec(1);
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "breaker.cooldown");
}

TEST(FanoutDeathTest, RejectsHedgingWithoutABackupReplica)
{
    FanoutParams f = validFanout();
    f.replicas = 1;
    f.policy = HedgePolicy::Tied;
    EXPECT_EXIT(buildFanout(f), ::testing::ExitedWithCode(1),
                "FanoutParams::policy 'tied' needs a backup replica");
}

/** Feed one leaf tier from two parents: the second addFanout must
 *  fatal(), or it would take over the leaf's reply handler and strand
 *  the first edge's sub-requests. */
void
buildTwoFanoutsIntoOneTier()
{
    Simulator sim;
    net::Link reply(sim, Rng(1));
    ClientSink client(sim);
    ServiceGraph graph(sim, reply, client, Rng(3));
    const hw::HwConfig cfg = hw::HwConfig::serverBaseline();
    TierParams pp;
    pp.name = "parent";
    pp.work = fixedWork(usec(5));
    Tier &parent = graph.addTier(graph.addMachine(cfg, "parent"), pp);
    pp.name = "other";
    Tier &other = graph.addTier(graph.addMachine(cfg, "other"), pp);
    TierParams cp;
    cp.name = "leaf";
    cp.work = fixedWork(usec(10));
    Tier &leaf = graph.addReplicatedTier(cfg, 2, std::move(cp));
    graph.addFanout(parent, leaf, validFanout(),
                    [](const net::Message &) {});
    graph.addFanout(other, leaf, validFanout(),
                    [](const net::Message &) {});
}

TEST(FanoutDeathTest, RejectsASecondFanoutIntoOneTier)
{
    EXPECT_EXIT(buildTwoFanoutsIntoOneTier(), ::testing::ExitedWithCode(1),
                "tier 'leaf' is already fed by a fan-out from tier "
                "'parent'; a second fan-out from tier 'other'");
}

/** Build one tier shedding at @p maxQueueDepth. */
void
buildSheddingTier(int maxQueueDepth)
{
    Simulator sim;
    net::Link reply(sim, Rng(1));
    ClientSink client(sim);
    ServiceGraph graph(sim, reply, client, Rng(3));
    TierParams t;
    t.name = "solo";
    t.work = fixedWork(usec(10));
    t.admission.maxQueueDepth = maxQueueDepth;
    graph.addTier(graph.addMachine(hw::HwConfig::serverBaseline(), "solo"),
                  std::move(t));
}

TEST(TierDeathTest, RejectsNegativeMaxQueueDepth)
{
    buildSheddingTier(0); // off
    buildSheddingTier(4);
    EXPECT_EXIT(buildSheddingTier(-1), ::testing::ExitedWithCode(1),
                "TierParams::admission.maxQueueDepth .*got -1");
}

TEST(TierDeathTest, RejectsAnEmptyHostList)
{
    Simulator sim;
    net::Link reply(sim, Rng(1));
    ClientSink client(sim);
    ServiceGraph graph(sim, reply, client, Rng(3));
    TierParams t;
    t.name = "orphan";
    t.work = fixedWork(usec(10));
    EXPECT_EXIT(Tier(graph, std::vector<hw::Machine *>{}, std::move(t)),
                ::testing::ExitedWithCode(1),
                "Tier hosts must hold at least one machine "
                "\\(tier 'orphan'\\)");
}

TEST(TierDeathTest, RejectsAnUnsetWorkModel)
{
    Simulator sim;
    net::Link reply(sim, Rng(1));
    ClientSink client(sim);
    ServiceGraph graph(sim, reply, client, Rng(3));
    hw::Machine &host =
        graph.addMachine(hw::HwConfig::serverBaseline(), "idle");
    TierParams t;
    t.name = "idle";
    EXPECT_EXIT(graph.addTier(host, std::move(t)),
                ::testing::ExitedWithCode(1),
                "TierParams::work must be set \\(tier 'idle'\\)");
}

} // namespace
} // namespace svc
} // namespace tpv
