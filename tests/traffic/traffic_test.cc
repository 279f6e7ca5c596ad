/** @file Tests for the traffic-management layer: retry-budget and
 *  circuit-breaker unit behaviour, policy labels, load shedding at
 *  tier queues (queue depth), breaker-driven routing on
 *  the fan-out edge, and the sweep<TrafficPolicyAxis> study axis with its
 *  serial/parallel bit-identity guarantee. */

#include "svc/traffic.hh"

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/study.hh"
#include "fault/fault.hh"
#include "svc/hdsearch.hh"

namespace tpv {
namespace svc {
namespace {

// ---------------------------------------------------------------- unit

TEST(RetryBudget, StartsAtBurstAndSpendsWholeTokens)
{
    RetryBudget b(0.5, 2.0);
    EXPECT_TRUE(b.tryAcquire());
    EXPECT_TRUE(b.tryAcquire());
    EXPECT_FALSE(b.tryAcquire()); // broke: 0 tokens < 1
    b.earn();
    EXPECT_FALSE(b.tryAcquire()); // 0.5 tokens: still broke
    b.earn();
    EXPECT_TRUE(b.tryAcquire()); // 1.0 token: one retry
}

TEST(RetryBudget, EarningIsCappedAtBurst)
{
    RetryBudget b(1.0, 3.0);
    for (int i = 0; i < 100; ++i)
        b.earn();
    EXPECT_DOUBLE_EQ(b.tokens(), 3.0);
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresOnly)
{
    BreakerPolicy p;
    p.failureThreshold = 3;
    p.cooldown = msec(5);
    CircuitBreaker cb(p);
    EXPECT_TRUE(cb.allow(0));
    EXPECT_FALSE(cb.onFailure(usec(10)));
    EXPECT_FALSE(cb.onFailure(usec(20)));
    cb.onSuccess(); // a success resets the consecutive count
    EXPECT_EQ(cb.consecutiveFailures(), 0);
    EXPECT_FALSE(cb.onFailure(usec(30)));
    EXPECT_FALSE(cb.onFailure(usec(40)));
    EXPECT_TRUE(cb.onFailure(usec(50))); // third in a row: opens
    EXPECT_EQ(cb.state(), CircuitBreaker::State::Open);
    EXPECT_FALSE(cb.allow(usec(50) + msec(5) - 1));
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess)
{
    BreakerPolicy p;
    p.failureThreshold = 1;
    p.cooldown = msec(5);
    CircuitBreaker cb(p);
    EXPECT_TRUE(cb.onFailure(msec(1)));
    const Time probeAt = msec(1) + msec(5);
    EXPECT_TRUE(cb.allow(probeAt)); // cooldown elapsed: the probe
    EXPECT_EQ(cb.state(), CircuitBreaker::State::HalfOpen);
    EXPECT_FALSE(cb.allow(probeAt + usec(1))); // one probe at a time
    cb.onSuccess();
    EXPECT_EQ(cb.state(), CircuitBreaker::State::Closed);
    EXPECT_TRUE(cb.allow(probeAt + usec(2)));
}

TEST(CircuitBreaker, HalfOpenFailureReopensForAnotherCooldown)
{
    BreakerPolicy p;
    p.failureThreshold = 1;
    p.cooldown = msec(5);
    CircuitBreaker cb(p);
    EXPECT_TRUE(cb.onFailure(msec(1)));
    EXPECT_TRUE(cb.allow(msec(6)));
    EXPECT_TRUE(cb.onFailure(msec(7))); // the probe failed: reopen
    EXPECT_EQ(cb.state(), CircuitBreaker::State::Open);
    EXPECT_FALSE(cb.allow(msec(7) + msec(5) - 1));
    EXPECT_TRUE(cb.allow(msec(7) + msec(5)));
}

TEST(CircuitBreaker, StaleProbeIsReplacedAfterACooldown)
{
    // A half-open probe can itself die silently; after a further
    // cooldown with no verdict the breaker admits a replacement.
    BreakerPolicy p;
    p.failureThreshold = 1;
    p.cooldown = msec(5);
    CircuitBreaker cb(p);
    EXPECT_TRUE(cb.onFailure(msec(1)));
    EXPECT_TRUE(cb.allow(msec(6)));
    EXPECT_FALSE(cb.allow(msec(10)));
    EXPECT_TRUE(cb.allow(msec(11))); // probe outstanding >= cooldown
}

TEST(TrafficPolicy, LabelsNameEveryActiveKnob)
{
    EXPECT_EQ(TrafficPolicy{}.label(), "");

    TrafficPolicy p;
    p.retry.deadline = msec(2);
    p.retry.maxAttempts = 3;
    EXPECT_EQ(p.label(), "+rt2000usx3");

    p.admission.maxQueueDepth = 64;
    p.breaker.failureThreshold = 5;
    EXPECT_EQ(p.label(), "+rt2000usx3+q64+cb5");
}

// ---------------------------------------------------------- shedding

struct ClientSink : net::Endpoint
{
    Simulator &sim;
    std::vector<net::Message> responses;

    explicit ClientSink(Simulator &s) : sim(s) {}

    void
    onMessage(const net::Message &m) override
    {
        responses.push_back(m);
    }
};

struct HdsRig
{
    Simulator sim;
    net::Link reply;
    ClientSink client;
    HdSearchCluster cluster;

    explicit HdsRig(HdSearchParams params)
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

HdSearchParams
deterministicParams()
{
    HdSearchParams p;
    p.bucketSd = 0;
    p.runVariability = 0;
    p.interLink.jitterFrac = 0;
    return p;
}

std::uint64_t
tierShedSum(const ServiceStats &st)
{
    std::uint64_t sum = 0;
    for (const auto &t : st.tiers)
        sum += t.requestsShed;
    return sum;
}

// A burst far beyond the bucket pool's depth limit: the excess is
// shed at the queue (counted per tier and in requestsShedDepth, NOT
// in requestsLost), the admitted prefix completes normally.
TEST(LoadShedding, DepthLimitShedsTheExcessOfABurst)
{
    HdSearchParams p = deterministicParams();
    p.fanout = 1;
    p.bucketWorkers = 2;
    p.traffic.admission.maxQueueDepth = 2;
    HdsRig rig(p);
    const int n = 60;
    for (int i = 0; i < n; ++i)
        rig.sendAt(msec(1), static_cast<std::uint64_t>(i + 1));
    rig.sim.run();

    const ServiceStats &st = rig.cluster.stats();
    EXPECT_GT(st.requestsShedDepth, 0u);
    EXPECT_LT(rig.client.responses.size(), static_cast<std::size_t>(n));
    EXPECT_GT(rig.client.responses.size(), 0u);
    // Sheds are their own ledger: not losses, and the per-tier
    // breakdown accounts for every one of them.
    EXPECT_EQ(st.requestsLost, 0u);
    EXPECT_EQ(st.requestsShedDepth, tierShedSum(st));
    // Everything sent was either answered or shed.
    EXPECT_EQ(rig.client.responses.size() + st.requestsShedDepth,
              static_cast<std::size_t>(n));
}

// The healthy-load guarantee: an enabled admission policy under light
// load sheds nothing and answers everything.
TEST(LoadShedding, LightLoadShedsNothing)
{
    HdSearchParams p = deterministicParams();
    p.traffic.admission.maxQueueDepth = 8;
    HdsRig rig(p);
    const int n = 20;
    for (int i = 0; i < n; ++i)
        rig.sendAt(msec(1) + i * usec(500),
                   static_cast<std::uint64_t>(i + 1));
    rig.sim.run();

    const ServiceStats &st = rig.cluster.stats();
    EXPECT_EQ(rig.client.responses.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(st.requestsShedDepth, 0u);
    EXPECT_EQ(st.requestsShedDelay, 0u);
}

// ----------------------------------------------------------- breaker

// An undetected crash with deadlines + breaker: the first expiries
// open the replica's breaker, later requests route around the corpse
// up front (breakerSkips) instead of burning a deadline each, and the
// half-open probe re-admits the replica after restart. Nothing is
// lost.
TEST(Breaker, RoutesAroundAnUndetectedDeadReplica)
{
    HdSearchParams p = deterministicParams();
    p.fanout = 1;
    p.replicas = 2;
    p.traffic.retry.deadline = msec(1);
    p.traffic.retry.maxAttempts = 3;
    p.traffic.breaker.failureThreshold = 2;
    p.traffic.breaker.cooldown = msec(5);
    HdsRig rig(p);
    const int n = 40;
    for (int i = 0; i < n; ++i)
        rig.sendAt(msec(1) + i * usec(500),
                   static_cast<std::uint64_t>(i + 1));
    fault::FaultSpec s;
    s.tier = "hds-bucket";
    s.replica = 0;
    s.start = msec(3);
    s.duration = msec(12);
    s.detectDelay = msec(60); // never detected: the breaker's job
    const fault::FaultPlan plan{s};
    fault::Injector inj(rig.sim, rig.cluster.graph(), plan);
    inj.arm(msec(80));
    rig.sim.run();

    const ServiceStats &st = rig.cluster.stats();
    EXPECT_EQ(rig.client.responses.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(st.requestsLost, 0u);
    EXPECT_GT(st.requestsRetried, 0u);
    EXPECT_GT(st.breakerOpens, 0u);
    EXPECT_GT(st.breakerSkips, 0u);
    EXPECT_GT(st.breakerProbes, 0u);
}

// -------------------------------------------------------- study axis

// The sweep<TrafficPolicyAxis> study axis: cells are labelled
// "<config>/<policy>" with the all-off policy rendered "none", and
// the grid is bit-identical between serial and parallel execution —
// retries, sheds and breakers all advance inside simulated events.
TEST(TrafficStudy, SweepLabelsCellsAndStaysBitIdentical)
{
    TrafficPolicy retries;
    retries.retry.deadline = msec(2);
    const std::vector<TrafficPolicy> policies = {TrafficPolicy{},
                                                 retries};
    const auto factory =
        [](const std::string &, const TrafficPolicy &) {
            auto cfg = core::ExperimentConfig::forHdSearch(4000);
            cfg.gen.warmup = msec(2);
            cfg.gen.duration = msec(25);
            core::applyTopology(cfg, svc::TopologyShape{4, 2, 0});
            // A *silent* kill (detect delay outlives the window):
            // only the traffic layer's own deadlines can recover.
            cfg.faultPlan = fault::FaultPlan::replicaKill(
                "hds-bucket", 0, msec(8), msec(4), msec(60));
            return cfg;
        };

    core::RunnerOptions serial;
    serial.runs = 2;
    serial.parallelism = 1;
    core::RunnerOptions parallel = serial;
    parallel.parallelism = 4;

    using core::TrafficPolicyAxis;
    const auto a =
        core::sweep<TrafficPolicyAxis>({"HP"}, policies, factory, serial);
    const auto b =
        core::sweep<TrafficPolicyAxis>({"HP"}, policies, factory, parallel);

    ASSERT_EQ(a.cells.size(), 2u);
    EXPECT_EQ(a.cells[0].config, "HP/none");
    EXPECT_EQ(a.cells[1].config, "HP/+rt2000usx3");
    ASSERT_EQ(b.cells.size(), a.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const auto &ra = a.cells[i].result;
        const auto &rb = b.cells[i].result;
        EXPECT_EQ(ra.avgPerRun, rb.avgPerRun);
        EXPECT_EQ(ra.p99PerRun, rb.p99PerRun);
        ASSERT_EQ(ra.runs.size(), rb.runs.size());
        for (std::size_t r = 0; r < ra.runs.size(); ++r) {
            EXPECT_EQ(ra.runs[r].events, rb.runs[r].events);
            EXPECT_EQ(ra.runs[r].service.requestsRetried,
                      rb.runs[r].service.requestsRetried);
            EXPECT_EQ(ra.runs[r].service.requestsLost,
                      rb.runs[r].service.requestsLost);
        }
    }
    // The retry policy is not a no-op under this fault plan.
    EXPECT_GT(a.cells[1].result.runs[0].service.requestsRetried +
                  a.cells[1].result.runs[1].service.requestsRetried,
              0u);
}

} // namespace
} // namespace svc
} // namespace tpv
