/** @file Failover and fault-determinism acceptance tests: replica
 *  kills must be survivable (failed over, not lost), tied/adaptive
 *  policies must engage, faulty grids must stay bit-identical across
 *  parallelism, and every loss is attributed to exactly one tier. */

#include "fault/fault.hh"

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/study.hh"
#include "svc/hdsearch.hh"
#include "svc/memcached.hh"

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

/** Deterministic HDSearch cluster rig (no jitter, no variance). */
struct HdsRig
{
    Simulator sim;
    net::Link reply;
    ClientSink client;
    svc::HdSearchCluster cluster;

    explicit HdsRig(svc::HdSearchParams params)
        : reply(sim, Rng(1), net::Link::Params{usec(5), 0.0, 10.0}),
          client(sim),
          cluster(sim, hw::HwConfig::serverBaseline(), reply, client,
                  Rng(2), params)
    {
    }

    void
    sendAt(Time when, std::uint64_t id)
    {
        sim.at(when, [this, id] {
            net::Message req;
            req.id = id;
            req.conn = static_cast<std::uint32_t>(id);
            cluster.onMessage(req);
        });
    }
};

/** The lost-request ledger is exact: ServiceGraph::countLost is the
 *  only writer of requestsLost, so the graph total always equals the
 *  sum over tiers. */
void
expectLedgerExact(const svc::ServiceStats &s)
{
    std::uint64_t tierLost = 0;
    for (const auto &t : s.tiers)
        tierLost += t.requestsLost;
    EXPECT_EQ(tierLost, s.requestsLost);
}

svc::HdSearchParams
deterministicParams()
{
    svc::HdSearchParams p;
    p.bucketSd = 0;
    p.runVariability = 0;
    p.interLink.jitterFrac = 0;
    return p;
}

// The ISSUE's acceptance assertion: killing 1 of 3 replicas mid-run
// completes *every* request, with nonzero requestsFailedOver — no
// hedging needed, crash-triggered re-issue and dead-primary routing
// alone must cover the outage.
TEST(Failover, KillingOneOfThreeReplicasCompletesAllRequests)
{
    svc::HdSearchParams p = deterministicParams();
    p.replicas = 3;
    HdsRig rig(p);
    const int n = 40;
    for (int i = 0; i < n; ++i)
        rig.sendAt(msec(1) + i * usec(500),
                   static_cast<std::uint64_t>(i + 1));
    Injector inj(rig.sim, rig.cluster.graph(),
                 FaultPlan::replicaKill("hds-bucket", 0, msec(5)));
    inj.arm(msec(60));
    rig.sim.run();

    const svc::ServiceStats &s = rig.cluster.stats();

    expectLedgerExact(s);
    EXPECT_EQ(rig.client.responses.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(s.responsesSent, static_cast<std::uint64_t>(n));
    EXPECT_GT(s.requestsFailedOver, 0u);
    EXPECT_EQ(s.faultsInjected, 1u);
    EXPECT_EQ(rig.cluster.fanout().inFlight(), 0u);
}

TEST(Failover, CrashAndRestartKeepsServingAndCountsPerTier)
{
    svc::HdSearchParams p = deterministicParams();
    p.replicas = 2;
    HdsRig rig(p);
    const int n = 60;
    for (int i = 0; i < n; ++i)
        rig.sendAt(msec(1) + i * usec(500),
                   static_cast<std::uint64_t>(i + 1));
    // Down for 10ms in the middle of the stream, then back.
    Injector inj(rig.sim, rig.cluster.graph(),
                 FaultPlan::replicaKill("hds-bucket", 0, msec(10),
                                        msec(10)));
    inj.arm(msec(60));
    rig.sim.run();

    const svc::ServiceStats &s = rig.cluster.stats();

    expectLedgerExact(s);
    EXPECT_EQ(s.responsesSent, static_cast<std::uint64_t>(n));
    EXPECT_GT(s.requestsFailedOver, 0u);
    // The bucket tier's breakdown registered the fault.
    bool found = false;
    for (const auto &t : s.tiers) {
        if (t.name == "hds-bucket") {
            found = true;
            EXPECT_EQ(t.faultsInjected, 1u);
            EXPECT_GT(t.requestsDispatched, 0u);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Failover, DetectionLatencyDefersFailoverButStillRecovers)
{
    // Silent crash at 5ms, detected at 12ms: a request issued inside
    // the undetected interval loses its sub on the dead replica and
    // is only rescued by the detection-triggered re-issue — so its
    // response cannot arrive before the detector fires.
    svc::HdSearchParams p = deterministicParams();
    p.fanout = 1; // single shard: the kill hits every request
    p.replicas = 2;
    HdsRig rig(p);
    rig.sendAt(msec(6), 1);
    FaultSpec s;
    s.tier = "hds-bucket";
    // Replica 1: request id 1's primary for shard 0 (hash-dependent
    // but deterministic; asserted below via requestsFailedOver).
    s.replica = svc::Fanout::primaryReplica(1, 0, 2);
    s.start = msec(5);
    s.detectDelay = msec(7);
    const FaultPlan plan{s};
    Injector inj(rig.sim, rig.cluster.graph(), plan);
    inj.arm(msec(60));
    rig.sim.run();

    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_GE(rig.client.at[0], msec(12));
    EXPECT_LT(rig.client.at[0], msec(14));
    const svc::ServiceStats &st = rig.cluster.stats();
    expectLedgerExact(st);
    EXPECT_EQ(st.requestsFailedOver, 1u);
    EXPECT_EQ(st.requestsLost, 1u); // the sub that died undetected
}

TEST(Failover, TiedRequestsCancelTheLoserBeforeItRuns)
{
    svc::HdSearchParams p = deterministicParams();
    p.replicas = 2;
    p.hedgePolicy = svc::HedgePolicy::Tied;
    HdsRig rig(p);
    const int n = 10;
    for (int i = 0; i < n; ++i)
        rig.sendAt(msec(1) + i * usec(500),
                   static_cast<std::uint64_t>(i + 1));
    rig.sim.run();

    const svc::ServiceStats &s = rig.cluster.stats();

    expectLedgerExact(s);
    EXPECT_EQ(s.responsesSent, static_cast<std::uint64_t>(n));
    // Every lane sent a twin...
    EXPECT_EQ(s.tiedSent, s.subRequestsSent);
    // ...and with idle queues the loser is *always* cancelled before
    // it runs: queue-slot cost only, zero duplicate service work.
    EXPECT_EQ(s.tiedCancelledBeforeRun, s.tiedSent);
    EXPECT_EQ(s.duplicatesDiscarded, 0u);
    EXPECT_EQ(s.duplicateWorkDispatched, 0);
    EXPECT_EQ(s.hedgesSent, 0u);
}

TEST(Failover, TiedRequestsSurviveAReplicaKill)
{
    svc::HdSearchParams p = deterministicParams();
    p.replicas = 3;
    p.hedgePolicy = svc::HedgePolicy::Tied;
    HdsRig rig(p);
    const int n = 40;
    for (int i = 0; i < n; ++i)
        rig.sendAt(msec(1) + i * usec(500),
                   static_cast<std::uint64_t>(i + 1));
    Injector inj(rig.sim, rig.cluster.graph(),
                 FaultPlan::replicaKill("hds-bucket", 0, msec(5),
                                        msec(20)));
    inj.arm(msec(60));
    rig.sim.run();

    const svc::ServiceStats &s = rig.cluster.stats();

    expectLedgerExact(s);
    EXPECT_EQ(s.responsesSent, static_cast<std::uint64_t>(n));
    EXPECT_GT(s.tiedCancelledBeforeRun, 0u);
}

TEST(Failover, AdaptiveHedgeTracksObservedTail)
{
    // Healthy deterministic scans: every sub-request round-trip is
    // ~equal, so once the estimator warms up the adaptive threshold
    // must sit near that round-trip, not at the configured fallback.
    svc::HdSearchParams p = deterministicParams();
    p.replicas = 2;
    p.hedgeDelay = msec(50); // far-off fallback
    p.hedgePolicy = svc::HedgePolicy::Adaptive;
    HdsRig rig(p);
    for (int i = 0; i < 30; ++i)
        rig.sendAt(msec(1) + i * usec(500),
                   static_cast<std::uint64_t>(i + 1));
    rig.sim.run();

    const svc::ServiceStats &s = rig.cluster.stats();

    expectLedgerExact(s);
    EXPECT_EQ(s.responsesSent, 30u);
    // 300us scans + queueing + two hops: the estimate lands well
    // under the 50ms fallback and above the raw scan time.
    const Time est = rig.cluster.fanout().currentHedgeDelay();
    EXPECT_LT(est, msec(5));
    EXPECT_GT(est, usec(300));
    // The per-tier breakdown mirrors the estimator.
    bool found = false;
    for (const auto &t : s.tiers) {
        if (t.name == "hds-bucket") {
            found = true;
            EXPECT_EQ(t.replyP95, static_cast<Time>(
                rig.cluster.fanout().replyQuantile().estimate()));
        }
    }
    EXPECT_TRUE(found);
}

TEST(Failover, ShardedMemcachedRoutesOneShardAndSurvivesAKill)
{
    Simulator sim;
    net::Link reply(sim, Rng(1), net::Link::Params{usec(5), 0.0, 10.0});
    ClientSink client(sim);
    svc::MemcachedParams p;
    p.shards = 8;
    p.replicas = 2;
    p.runVariability = 0;
    p.interLink.jitterFrac = 0;
    // Unbounded prewarmed caches hold every key, so every GET hits and
    // no miss detours through the backing store.
    p.cache.keys = 512;
    svc::MemcachedCluster cluster(sim, hw::HwConfig::serverBaseline(),
                                  reply, client, Rng(2), p);
    const int n = 60;
    for (int i = 0; i < n; ++i) {
        const auto id = static_cast<std::uint64_t>(i + 1);
        sim.at(msec(1) + i * usec(200), [&cluster, id] {
            net::Message req;
            req.id = id;
            req.conn = static_cast<std::uint32_t>(id);
            req.kind = 0; // GET
            req.key = static_cast<std::uint32_t>((id * 37) % 512);
            req.bytes = 56;
            cluster.onMessage(req);
        });
    }
    Injector inj(sim, cluster.graph(),
                 FaultPlan::replicaKill("mc-cache", 0, msec(5)));
    inj.arm(msec(60));
    sim.run();

    const svc::ServiceStats &s = cluster.stats();

    expectLedgerExact(s);
    EXPECT_EQ(s.responsesSent, static_cast<std::uint64_t>(n));
    EXPECT_EQ(s.cacheMisses, 0u);
    // Key-hash routing: exactly one sub-request per request, spread
    // across the shard space.
    EXPECT_EQ(s.subRequestsSent, static_cast<std::uint64_t>(n));
    EXPECT_GT(s.requestsFailedOver, 0u);
    std::vector<int> hits(8, 0);
    for (int i = 0; i < 512; ++i)
        ++hits[static_cast<std::size_t>(svc::MemcachedCluster::shardOf(
            static_cast<std::uint64_t>(i), 8))];
    for (int h : hits)
        EXPECT_GT(h, 20);
}

// The golden-determinism guarantee extended to faulty runs: a grid
// with a crash/restart mid-window is bit-identical between serial
// and parallel execution, per-run metrics and fault counters alike.
TEST(Failover, FaultyGridBitIdenticalAcrossParallelism)
{
    auto cfg = core::ExperimentConfig::forHdSearch(2000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(40);
    core::applyTopology(
        cfg, svc::TopologyShape{4, 3, usec(300),
                                svc::HedgePolicy::Adaptive});
    cfg.faultPlan =
        FaultPlan::replicaKill("hds-bucket", 0, msec(10), msec(15));

    core::RunnerOptions serial;
    serial.runs = 4;
    serial.parallelism = 1;
    core::RunnerOptions parallel = serial;
    parallel.parallelism = 4;

    const auto a = core::runMany(cfg, serial);
    const auto b = core::runMany(cfg, parallel);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    EXPECT_EQ(a.avgPerRun, b.avgPerRun);
    EXPECT_EQ(a.p99PerRun, b.p99PerRun);
    std::uint64_t failedOver = 0;
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].events, b.runs[i].events);
        expectLedgerExact(a.runs[i].service);
        expectLedgerExact(b.runs[i].service);
        EXPECT_EQ(a.runs[i].service.requestsFailedOver,
                  b.runs[i].service.requestsFailedOver);
        EXPECT_EQ(a.runs[i].service.requestsLost,
                  b.runs[i].service.requestsLost);
        EXPECT_EQ(a.runs[i].service.faultsInjected, 1u);
        failedOver += a.runs[i].service.requestsFailedOver;
    }
    EXPECT_GT(failedOver, 0u);
}

} // namespace
} // namespace fault
} // namespace tpv
