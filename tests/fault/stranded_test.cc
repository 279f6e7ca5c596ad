/** @file Regression tests for the stranded-sub-request bug: a replica
 *  crash *shorter than the failure detector's delay* swallows the
 *  sub-requests in flight to it — nobody ever suspects the replica,
 *  so no failover fires and the requests counted as lost forever.
 *  Client-side deadlines with retries are the fix: the sender's own
 *  timeout notices what the detector cannot. These tests pin both the
 *  old loss (no-retry baseline) and the recovery (retries on). */

#include "fault/fault.hh"

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "svc/hdsearch.hh"

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
strandedParams()
{
    svc::HdSearchParams p;
    p.bucketSd = 0;
    p.runVariability = 0;
    p.interLink.jitterFrac = 0;
    p.fanout = 1; // single shard: the silent crash hits the request
    p.replicas = 2;
    return p;
}

/** Crash replica (the request's primary) at 5ms for 3ms, with a 7ms
 *  detection delay: the window closes before the detector would fire,
 *  so the failure is never announced. */
FaultPlan
silentShortCrash()
{
    FaultSpec s;
    s.tier = "hds-bucket";
    s.replica = svc::Fanout::primaryReplica(1, 0, 2);
    s.start = msec(5);
    s.duration = msec(3);
    s.detectDelay = msec(7); // > duration: detection never happens
    return FaultPlan{s};
}

// The no-retry baseline: today's behaviour, pinned. The sub-request
// issued into the undetected window dies silently and the request is
// stranded — requestsLost for good, zero responses.
TEST(StrandedSubRequest, SilentShortCrashWithoutRetriesLosesTheRequest)
{
    HdsRig rig(strandedParams());
    rig.sendAt(msec(6), 1); // lands inside the 5..8ms dead window
    Injector inj(rig.sim, rig.cluster.graph(), silentShortCrash());
    inj.arm(msec(60));
    rig.sim.run();

    const svc::ServiceStats &st = rig.cluster.stats();

    expectLedgerExact(st);
    EXPECT_EQ(rig.client.responses.size(), 0u);
    EXPECT_EQ(st.requestsLost, 1u);
    EXPECT_EQ(st.requestsFailedOver, 0u); // the detector never fired
    EXPECT_EQ(st.requestsRetried, 0u);
}

// The fix: a per-attempt deadline notices the swallowed sub-request
// and re-issues it to the other replica. Every request completes —
// requestsLost drops to zero with requestsRetried > 0.
TEST(StrandedSubRequest, DeadlineRetryRecoversTheSwallowedSubRequest)
{
    svc::HdSearchParams p = strandedParams();
    p.traffic.retry.deadline = msec(2);
    p.traffic.retry.maxAttempts = 3;
    HdsRig rig(p);
    rig.sendAt(msec(6), 1);
    Injector inj(rig.sim, rig.cluster.graph(), silentShortCrash());
    inj.arm(msec(60));
    rig.sim.run();

    const svc::ServiceStats &st = rig.cluster.stats();

    expectLedgerExact(st);
    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_EQ(st.requestsLost, 0u);
    EXPECT_GT(st.requestsRetried, 0u);
    // The fault-dropped copy was absorbed by the pending retry, not
    // counted lost.
    EXPECT_GT(st.subRequestsDropped, 0u);
    // Recovery came from the sender's own timeout: the reply arrives
    // roughly a deadline after the scatter, well before the 12ms a
    // detection-triggered re-issue would need.
    EXPECT_LT(rig.client.at[0], msec(12));
}

// A whole stream through the crash window: with retries, every
// request completes and the loss counter stays at zero; the graph
// total still equals the per-tier sum.
TEST(StrandedSubRequest, StreamThroughSilentCrashCompletesEverything)
{
    svc::HdSearchParams p = strandedParams();
    p.fanout = 4;
    p.traffic.retry.deadline = msec(2);
    HdsRig rig(p);
    const int n = 30;
    for (int i = 0; i < n; ++i)
        rig.sendAt(msec(1) + i * usec(500),
                   static_cast<std::uint64_t>(i + 1));
    FaultSpec s;
    s.tier = "hds-bucket";
    s.replica = 0;
    s.start = msec(5);
    s.duration = msec(3);
    s.detectDelay = msec(7);
    const FaultPlan plan{s};
    Injector inj(rig.sim, rig.cluster.graph(), plan);
    inj.arm(msec(60));
    rig.sim.run();

    const svc::ServiceStats &st = rig.cluster.stats();

    expectLedgerExact(st);
    EXPECT_EQ(rig.client.responses.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(st.requestsLost, 0u);
    EXPECT_GT(st.requestsRetried, 0u);
}

// The retry machinery must not disturb healthy runs: no timeouts, no
// retries, identical responses — the deadline timers all cancel.
TEST(StrandedSubRequest, HealthyRunWithRetriesNeverRetries)
{
    svc::HdSearchParams p = strandedParams();
    p.fanout = 4;
    p.traffic.retry.deadline = msec(5);
    HdsRig rig(p);
    const int n = 20;
    for (int i = 0; i < n; ++i)
        rig.sendAt(msec(1) + i * usec(500),
                   static_cast<std::uint64_t>(i + 1));
    rig.sim.run();

    const svc::ServiceStats &st = rig.cluster.stats();

    expectLedgerExact(st);
    EXPECT_EQ(rig.client.responses.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(st.requestsRetried, 0u);
    EXPECT_EQ(st.retriesSuppressed, 0u);
    EXPECT_EQ(st.requestsLost, 0u);
    EXPECT_EQ(st.subRequestsDropped, 0u);
}

// Exhausted attempts turn an absorbed drop into a terminal loss: a
// crash outlasting every retry still counts the request lost exactly
// once, and the graph/tier counters agree.
TEST(StrandedSubRequest, ExhaustedRetriesCountTheLossOnce)
{
    svc::HdSearchParams p = strandedParams();
    p.replicas = 1; // nowhere else to go: retries re-probe the corpse
    p.traffic.retry.deadline = msec(1);
    p.traffic.retry.maxAttempts = 2;
    HdsRig rig(p);
    rig.sendAt(msec(6), 1);
    FaultSpec s;
    s.tier = "hds-bucket";
    s.replica = 0;
    s.start = msec(5);
    s.duration = msec(30); // outlives deadline * maxAttempts
    s.detectDelay = msec(40);
    const FaultPlan plan{s};
    Injector inj(rig.sim, rig.cluster.graph(), plan);
    inj.arm(msec(60));
    rig.sim.run();

    const svc::ServiceStats &st = rig.cluster.stats();

    expectLedgerExact(st);
    EXPECT_EQ(rig.client.responses.size(), 0u);
    EXPECT_EQ(st.requestsLost, 1u);
    EXPECT_EQ(st.requestsRetried, 1u); // attempt 2 of 2
    EXPECT_GT(st.retriesSuppressed, 0u);
}

// The acceptance gate: faulty grids with the full traffic policy stay
// bit-identical between serial and parallel execution.
TEST(StrandedSubRequest, RetryGridBitIdenticalAcrossParallelism)
{
    auto cfg = core::ExperimentConfig::forHdSearch(2000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(40);
    svc::TopologyShape shape{4, 3, usec(300)};
    shape.traffic.retry.deadline = msec(2);
    shape.traffic.admission.maxQueueDepth = 64;
    shape.traffic.breaker.failureThreshold = 3;
    core::applyTopology(cfg, shape);
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
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].events, b.runs[i].events);
        expectLedgerExact(a.runs[i].service);
        expectLedgerExact(b.runs[i].service);
        EXPECT_EQ(a.runs[i].service.requestsRetried,
                  b.runs[i].service.requestsRetried);
        EXPECT_EQ(a.runs[i].service.requestsLost,
                  b.runs[i].service.requestsLost);
        EXPECT_EQ(a.runs[i].service.subRequestsDropped,
                  b.runs[i].service.subRequestsDropped);
    }
}

} // namespace
} // namespace fault
} // namespace tpv
