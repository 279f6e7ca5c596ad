/**
 * @file
 * Golden determinism test for the simulator hot path.
 *
 * The hot-path rewrites (inline event callbacks, the indexed 4-ary
 * event heap with eager cancel, in-place reschedule and the held
 * root, pooled in-flight messages, sorted-once statistics) must not
 * move a single bit of any result: the (time, seq) pop order — a
 * reschedule takes a fresh seq exactly as cancel plus schedule did —
 * the RNG stream consumption, and the summary arithmetic are all
 * unchanged by construction. This test pins that claim to numbers: a
 * sweep<TopologyAxis>() cell — fan-out, replication and hedging all
 * exercised — must reproduce the per-run fingerprints captured from
 * the pre-rewrite implementation exactly (hexfloat, no tolerance).
 *
 * If this fails after an intentional ordering change, recapture the
 * goldens by printing the fields below at full precision ("%a") from
 * a trusted build. The values depend on the platform's libm (the
 * work models draw lognormals), so recapture on glibc if a different
 * math library ever disagrees.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/study.hh"
#include "fault/fault.hh"

namespace tpv {
namespace {

struct GoldenRun
{
    double latencyMean;
    double latencyP99;
    double latenessMean;
    std::uint64_t sent;
    std::uint64_t received;
    std::uint64_t events;
    std::uint64_t hedgesSent;
    std::uint64_t hedgesCancelled;
    std::uint64_t duplicatesDiscarded;
    Time serviceWorkDispatched;
    Time duplicateWorkDispatched;
};

// Captured from the PR 7 build (per-instance tier RNG streams — the
// determinism refactor the intra-run parallel engine rests on — moved
// every draw relative to the PR 3 capture): HP client, HDSearch at
// 20k qps, shape s4r2+h300us, 5ms warmup + 40ms window, baseSeed 42,
// runs {0,1,2}, parallelism 2.
const GoldenRun kGolden[] = {
    {0x1.2ef9a1938cce5p+15, 0x1.00a56f9db22d1p+16, 0x1.0028a91132909p+0,
     895, 603, 44362, 3570, 10, 2396, 2214443900, 742661602},
    {0x1.2d8a59c8b6549p+15, 0x1.f4d9d02363b25p+15, 0x1.00baada54473fp+0,
     928, 601, 45224, 3702, 10, 2395, 2296151909, 741683333},
    {0x1.2dab3b1843329p+15, 0x1.f6d7d3d859c8cp+15, 0x1.01fea0afd2ffp+0,
     892, 613, 44233, 3561, 7, 2404, 2137857963, 740552703},
};

TEST(GoldenDeterminism, SweepTopologiesCellIsBitIdenticalToPreRewrite)
{
    core::RunnerOptions opt;
    opt.runs = 3;
    opt.parallelism = 2;
    opt.baseSeed = 42;
    auto grid = core::sweep<core::TopologyAxis>(
        {"HP"}, {svc::TopologyShape{4, 2, usec(300)}},
        [](const std::string &, const svc::TopologyShape &) {
            auto cfg = core::ExperimentConfig::forHdSearch(20000);
            cfg.gen.warmup = msec(5);
            cfg.gen.duration = msec(40);
            return cfg;
        },
        opt);

    ASSERT_EQ(grid.cells.size(), 1u);
    const auto &runs = grid.cells.front().result.runs;
    ASSERT_EQ(runs.size(), std::size(kGolden));
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        const core::RunResult &r = runs[i];
        const GoldenRun &g = kGolden[i];
        // Exact: the rewrite promises bit-identical runs, so the
        // comparisons are ==, not near.
        EXPECT_EQ(r.latency.mean, g.latencyMean);
        EXPECT_EQ(r.latency.p99, g.latencyP99);
        EXPECT_EQ(r.sendLateness.mean, g.latenessMean);
        EXPECT_EQ(r.sent, g.sent);
        EXPECT_EQ(r.received, g.received);
        EXPECT_EQ(r.events, g.events);
        EXPECT_EQ(r.service.hedgesSent, g.hedgesSent);
        EXPECT_EQ(r.service.hedgesCancelled, g.hedgesCancelled);
        EXPECT_EQ(r.service.duplicatesDiscarded, g.duplicatesDiscarded);
        EXPECT_EQ(r.service.serviceWorkDispatched,
                  g.serviceWorkDispatched);
        EXPECT_EQ(r.service.duplicateWorkDispatched,
                  g.duplicateWorkDispatched);
    }
}

// The serial path must agree with the parallel one as well — the
// golden capture above ran at parallelism 2, so this closes the loop
// on "bit-identical at any width" for the rewritten hot path.
TEST(GoldenDeterminism, SerialMatchesGoldenToo)
{
    core::RunnerOptions opt;
    opt.runs = 3;
    opt.parallelism = 1;
    opt.baseSeed = 42;
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(40);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    auto result = core::runMany(cfg, opt);
    ASSERT_EQ(result.runs.size(), std::size(kGolden));
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        EXPECT_EQ(result.runs[i].latency.mean, kGolden[i].latencyMean);
        EXPECT_EQ(result.runs[i].events, kGolden[i].events);
    }
}

/** Every observable a run reports, as one line: floats in hexfloat,
 *  then the request/event counts, the service counters and the
 *  per-tier counters. */
std::string
runFingerprint(const core::RunResult &r)
{
    const svc::ServiceStats &s = r.service;
    std::ostringstream os;
    os << std::hexfloat << "lat " << r.latency.mean << ' ' << r.latency.p99
       << ' ' << r.latency.max << " late " << r.sendLateness.mean
       << std::dec << " io " << r.sent << ' ' << r.received << ' '
       << r.events << " svc " << s.requestsReceived << ' '
       << s.responsesSent << ' ' << s.serviceWorkDispatched << ' '
       << s.subRequestsSent << " hedge " << s.hedgesSent << ' '
       << s.hedgesCancelled << ' ' << s.hedgesSuppressed << ' '
       << s.duplicatesDiscarded << ' ' << s.duplicateWorkDispatched
       << " shed " << s.requestsShedDepth << ' ' << s.requestsShedDelay
       << ' ' << s.requestsLost << " fault " << s.faultsInjected << ' '
       << s.requestsFailedOver << ' ' << s.pauseTime << " cache "
       << s.cacheHits << ' ' << s.cacheMisses << ' ' << s.cacheEvictions
       << ' ' << s.cacheFlushes;
    for (const auto &t : s.tiers)
        os << " | " << t.name << ' ' << t.requestsDispatched << ' '
           << t.workDispatched << ' ' << t.requestsShed;
    return os.str();
}

/** Short HDSearch cell: fan-out 4, replicas 2, 300us hedge. */
core::ExperimentConfig
hdsearchCell()
{
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(2);
    cfg.gen.duration = msec(12);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    return cfg;
}

/** memcached s4r2 with a 4K-key keyspace and 256-entry shard caches. */
core::ExperimentConfig
cachedMemcachedCell()
{
    auto cfg = core::ExperimentConfig::forMemcached(40000);
    cfg.gen.warmup = msec(2);
    cfg.gen.duration = msec(12);
    svc::TopologyShape shape{4, 2, 0};
    shape.cache.keys = 4096;
    shape.cache.capacityEntries = 256;
    core::applyTopology(cfg, shape);
    return cfg;
}

struct GoldenShape
{
    const char *name;
    core::ExperimentConfig (*make)();
    const char *fingerprint;
};

// Captured at commit 5bac912, the last build that could also run these
// shapes on the intra-run parallel engine (which matched them bit for
// bit): one run per shape, default seed. Together the shapes drive
// every service policy (fixed and adaptive hedging, caches, shedding,
// the socialnet chain), the replica-kill fault path with detection
// delay, and periodic server ticks. adaptive_hedge was captured later,
// on d713f2c, the build before the hedge-rate budget was deleted.
// load_shedding was re-captured on 8f84776 with its CoDel target
// removed, the build before delay shedding was deleted.
const GoldenShape kShapes[] = {
    {"hedged_s4r2", hdsearchCell,
     "lat 0x1.2fa7843d46b26p+14 0x1.1ca11a915379ep+15 "
     "0x1.22fed9999999ap+15 late 0x1p+0 io 298 298 18645 svc 298 298 "
     "747780606 1192 hedge 1184 8 0 1184 362109837 shed 0 0 0 fault "
     "0 0 0 cache 0 0 0 0 | hds-midtier 298 11920000 0 | hds-bucket "
     "2376 717384606 0"},
    {"adaptive_hedge",
     [] {
         auto cfg = core::ExperimentConfig::forHdSearch(20000);
         cfg.gen.warmup = msec(2);
         cfg.gen.duration = msec(12);
         svc::TopologyShape shape{4, 2, usec(300)};
         shape.policy = svc::HedgePolicy::Adaptive;
         core::applyTopology(cfg, shape);
         return cfg;
     },
     "lat 0x1.d698a79bbadbdp+13 0x1.aca19a97e132bp+14 "
     "0x1.b8f4cbc6a7efap+14 late 0x1p+0 io 298 298 18556 svc 298 298 "
     "747780606 1192 hedge 1184 8 0 1184 355704004 shed 0 0 0 fault 0 "
     "0 0 cache 0 0 0 0 | hds-midtier 298 11920000 0 | hds-bucket "
     "2376 717384606 0"},
    {"cached_memcached", cachedMemcachedCell,
     "lat 0x1.93cb127f92af3p+7 0x1.217611dbca969p+10 "
     "0x1.64825e353f7cfp+10 late 0x1.bf92de079c919p+5 io 593 593 "
     "19270 svc 593 593 50656872 679 hedge 0 0 0 0 0 shed 0 0 0 "
     "fault 0 0 0 cache 487 86 88 0 | mc-router 593 1186000 0 | "
     "mc-cache 593 5171589 0 | mc-store 86 43534283 0"},
    {"load_shedding",
     [] {
         // Overloads the leaf tier so depth shedding engages.
         auto cfg = core::ExperimentConfig::forHdSearch(60000);
         cfg.gen.warmup = msec(2);
         cfg.gen.duration = msec(12);
         svc::TopologyShape shape{4, 2, usec(300)};
         shape.traffic.admission.maxQueueDepth = 32;
         core::applyTopology(cfg, shape);
         return cfg;
     },
     "lat 0x1.7c4c027084ffdp+13 0x1.f9ef82ce46499p+13 "
     "0x1.ff423b645a1cbp+13 late 0x1.01974c8329fedp+0 io 847 92 "
     "29119 svc 847 92 497789482 3388 hedge 3381 7 0 355 108715478 "
     "shed 5269 0 0 fault 0 0 0 cache 0 0 0 0 | hds-midtier 847 "
     "33880000 0 | hds-bucket 1500 451989482 5269"},
    {"socialnet_chain",
     [] {
         auto cfg = core::ExperimentConfig::forSocialNetwork(2000);
         cfg.gen.warmup = msec(2);
         cfg.gen.duration = msec(12);
         return cfg;
     },
     "lat 0x1.5b1fb4286e75dp+12 0x1.5c8b59e83e425p+13 "
     "0x1.6d733126e978dp+13 late 0x1.40a6fa626fa63p+6 io 34 34 2693 "
     "svc 34 34 63884918 0 hedge 0 0 0 0 0 shed 0 0 0 fault 0 0 0 "
     "cache 0 0 0 0 | frontend 34 6565861 0 | user-timeline 34 "
     "20013964 0 | post-storage-1 34 13487295 0 | post-storage-2 34 "
     "12302790 0 | post-storage-3 34 11515008 0"},
    {"replica_kill",
     [] {
         auto cfg = hdsearchCell();
         cfg.faultPlan = fault::FaultPlan::replicaKill(
             "hds-bucket", 0, msec(4), msec(4), usec(500));
         return cfg;
     },
     "lat 0x1.d339c85c24c3ep+13 0x1.84a3258255b03p+14 "
     "0x1.9354b33333333p+14 late 0x1p+0 io 298 298 17451 svc 298 298 "
     "655259646 1192 hedge 894 8 0 801 239867619 shed 0 0 233 fault "
     "1 281 0 cache 0 0 0 0 | hds-midtier 298 11920000 0 | "
     "hds-bucket 2064 624863646 0"},
    {"periodic_ticks",
     [] {
         auto cfg = hdsearchCell();
         cfg.server.tickless = false;
         return cfg;
     },
     "lat 0x1.323d70c996b76p+14 0x1.1c00aee631f8ap+15 "
     "0x1.22da35c28f5c3p+15 late 0x1p+0 io 298 298 23521 svc 298 298 "
     "747780606 1192 hedge 1184 8 0 1184 361338029 shed 0 0 0 fault "
     "0 0 0 cache 0 0 0 0 | hds-midtier 298 11920000 0 | hds-bucket "
     "2376 717384606 0"},
    // The two single-tier services, captured at commit 1ed645d, the
    // last build that ran them through a separate single-tier server
    // layer over the graph. At 300K QPS requests overlap on the
    // memcached workers.
    {"memcached_single_tier",
     [] {
         auto cfg = core::ExperimentConfig::forMemcached(300000);
         cfg.client = hw::HwConfig::clientLP();
         cfg.gen.warmup = msec(2);
         cfg.gen.duration = msec(12);
         return cfg;
     },
     "lat 0x1.2059ca27a022ep+6 0x1.beeae7d566cf2p+6 "
     "0x1.2ca5e353f7ceep+7 late 0x1.1544f320cafa1p+5 io 4151 4151 "
     "45177 svc 4151 4151 39262443 0 hedge 0 0 0 0 0 shed 0 0 0 "
     "fault 0 0 0 cache 0 0 0 0 | server 4151 39262443 0"},
    {"synthetic_delay",
     [] {
         auto cfg = core::ExperimentConfig::forSynthetic(20000, usec(100));
         cfg.gen.warmup = msec(2);
         cfg.gen.duration = msec(12);
         return cfg;
     },
     "lat 0x1.b944a5baff875p+7 0x1.73a848beb5b2ap+8 "
     "0x1.9863126e978d5p+8 late 0x1.16babfd9431a8p+6 io 303 303 "
     "10670 svc 303 303 36186563 0 hedge 0 0 0 0 0 shed 0 0 0 "
     "fault 0 0 0 cache 0 0 0 0 | server 303 36186563 0"},
};

/** runFingerprint plus the policy counters it leaves out: tied
 *  copies, retries and drops, breaker transitions, and per tier the
 *  terminal losses and the adaptive reply p95. */
std::string
policyFingerprint(const core::RunResult &r)
{
    const svc::ServiceStats &s = r.service;
    std::ostringstream os;
    os << runFingerprint(r) << " tied " << s.tiedSent << ' '
       << s.tiedCancelledBeforeRun << " retry " << s.requestsRetried
       << ' ' << s.retriesSuppressed << ' ' << s.subRequestsDropped
       << " breaker " << s.breakerOpens << ' ' << s.breakerSkips << ' '
       << s.breakerProbes;
    for (const auto &t : s.tiers)
        os << " | " << t.name << " lost " << t.requestsLost << " p95 "
           << t.replyP95;
    return os.str();
}

/** HDSearch s4r3 with @p shape's policy, bucket replica 0 killed at
 *  4 ms for 6 ms and detected only after 3 ms, past the 2 ms
 *  deadline of the retry shape. */
core::ExperimentConfig
killedS4r3Cell(svc::TopologyShape shape)
{
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(2);
    cfg.gen.duration = msec(12);
    core::applyTopology(cfg, shape);
    cfg.faultPlan = fault::FaultPlan::replicaKill("hds-bucket", 0, msec(4),
                                                  msec(6), msec(3));
    return cfg;
}

// Captured at commit 02f9444, before the fan-out path's lane record,
// feeding-edge and span-builder rewrite: tied requests, deadlines
// with retries and circuit breakers had no golden until then.
const GoldenShape kPolicyShapes[] = {
    {"tied_kill",
     [] {
         svc::TopologyShape shape{4, 3, 0};
         shape.policy = svc::HedgePolicy::Tied;
         return killedS4r3Cell(shape);
     },
     "lat 0x1.3cc4e0e73604bp+12 0x1.301f495bff044p+13 "
     "0x1.5bcdb645a1cacp+13 late 0x1p+0 io 298 298 14669 svc 298 298 "
     "416823981 1192 hedge 0 0 0 66 19369159 shed 0 0 207 fault 1 "
     "162 0 cache 0 0 0 0 | hds-midtier 298 11920000 0 | hds-bucket "
     "1266 386427981 0 tied 1104 881 retry 0 0 0 breaker 0 0 0 | "
     "hds-midtier lost 0 p95 0 | hds-bucket lost 207 p95 0"},
    {"retry_breaker_kill",
     [] {
         svc::TopologyShape shape{4, 3, 0};
         shape.traffic.retry.deadline = msec(2);
         shape.traffic.retry.maxAttempts = 3;
         shape.traffic.breaker.failureThreshold = 2;
         shape.traffic.breaker.cooldown = msec(2);
         return killedS4r3Cell(shape);
     },
     "lat 0x1.ad84e07a28bbp+12 0x1.f2d4930be0dedp+13 "
     "0x1.fdf16a7ef9db2p+13 late 0x1p+0 io 298 298 13574 svc 298 298 "
     "421734164 1192 hedge 0 0 0 92 28021435 shed 0 0 35 fault 1 122 "
     "0 cache 0 0 0 0 | hds-midtier 298 11920000 0 | hds-bucket 1301 "
     "391338164 0 tied 0 0 retry 111 612 52 breaker 149 209 1 | "
     "hds-midtier lost 0 p95 0 | hds-bucket lost 35 p95 0"},
};

/** Runs the policy shape named @p name once, compares its policy
 *  fingerprint and returns the run. */
core::RunResult
runPolicyShape(const std::string &name)
{
    for (const GoldenShape &g : kPolicyShapes) {
        if (name != g.name)
            continue;
        core::RunResult r = core::runOnce(g.make());
        EXPECT_EQ(policyFingerprint(r), g.fingerprint);
        return r;
    }
    ADD_FAILURE() << "no policy shape named " << name;
    return {};
}

/** Runs the shape named @p name once and compares its fingerprint. */
void
expectShapeMatchesGolden(const std::string &name)
{
    for (const GoldenShape &g : kShapes) {
        if (name != g.name)
            continue;
        EXPECT_EQ(runFingerprint(core::runOnce(g.make())), g.fingerprint);
        return;
    }
    FAIL() << "no golden shape named " << name;
}

TEST(GoldenDeterminism, HedgedHdSearchShapeMatchesGolden)
{
    expectShapeMatchesGolden("hedged_s4r2");
}

TEST(GoldenDeterminism, AdaptiveHedgingMatchesGolden)
{
    expectShapeMatchesGolden("adaptive_hedge");
}

TEST(GoldenDeterminism, CachedMemcachedClusterMatchesGolden)
{
    expectShapeMatchesGolden("cached_memcached");
}

TEST(GoldenDeterminism, LoadSheddingMatchesGolden)
{
    expectShapeMatchesGolden("load_shedding");
}

TEST(GoldenDeterminism, SocialNetworkChainMatchesGolden)
{
    expectShapeMatchesGolden("socialnet_chain");
}

TEST(GoldenDeterminism, ReplicaKillMatchesGolden)
{
    expectShapeMatchesGolden("replica_kill");
}

TEST(GoldenDeterminism, PeriodicServerTicksMatchesGolden)
{
    expectShapeMatchesGolden("periodic_ticks");
}

TEST(GoldenDeterminism, SingleTierMemcachedMatchesGolden)
{
    expectShapeMatchesGolden("memcached_single_tier");
}

TEST(GoldenDeterminism, SyntheticServerMatchesGolden)
{
    expectShapeMatchesGolden("synthetic_delay");
}

TEST(GoldenDeterminism, TiedRequestsUnderReplicaKillMatchGolden)
{
    const core::RunResult r = runPolicyShape("tied_kill");
    EXPECT_GT(r.service.tiedSent, 0u);
    EXPECT_GT(r.service.tiedCancelledBeforeRun, 0u);
    EXPECT_GT(r.service.requestsFailedOver, 0u);
}

TEST(GoldenDeterminism, RetriesAndBreakersUnderReplicaKillMatchGolden)
{
    const core::RunResult r = runPolicyShape("retry_breaker_kill");
    EXPECT_GT(r.service.requestsRetried, 0u);
    EXPECT_GT(r.service.retriesSuppressed, 0u);
    EXPECT_GT(r.service.subRequestsDropped, 0u);
    EXPECT_GT(r.service.breakerOpens, 0u);
    EXPECT_GT(r.service.breakerSkips, 0u);
    EXPECT_GT(r.service.breakerProbes, 0u);
}

} // namespace
} // namespace tpv
