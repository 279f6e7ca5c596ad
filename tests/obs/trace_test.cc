/**
 * @file
 * Flight-recorder determinism tests.
 *
 * The recorder's contract is threefold: tracing OFF changes nothing
 * (the run's results are bit-identical to an obs-free config),
 * tracing ON is deterministic (the exported JSON is byte-identical
 * run-to-run), and the exported bytes are pinned to golden digests.
 * All three are exercised on a hedged, faulty scatter-gather scenario
 * — the hardest case, since hedges, retries, failover and fault
 * windows all emit spans.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/experiment.hh"
#include "obs/trace.hh"

namespace tpv {
namespace {

/** Hedged + faulty HDSearch cell: fan-out 4, 2 replicas, 300us hedge,
 *  one bucket replica killed mid-window with a detection delay. */
core::ExperimentConfig
tracedConfig()
{
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(40);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    cfg.faultPlan = fault::FaultPlan::replicaKill(
        "hds-bucket", 0, msec(10), msec(10), usec(500));
    cfg.seed = 42;
    return cfg;
}

/** Run @p cfg with tracing on, returning the export. */
struct Export
{
    std::string traceJson;
    std::uint64_t recorded = 0;
    core::RunResult result;
};

Export
runTraced(core::ExperimentConfig cfg, std::uint32_t sampleEveryN = 1,
          int tailN = 4)
{
    Export out;
    cfg.obs.trace = true;
    cfg.obs.sampleEveryN = sampleEveryN;
    cfg.obs.tailN = tailN;
    cfg.obs.sink = [&out](const obs::TraceRecorder *tr,
                          const obs::MetricsRegistry *) {
        ASSERT_NE(tr, nullptr);
        out.traceJson = tr->exportJson();
        out.recorded = tr->recorded();
    };
    out.result = core::runOnce(cfg);
    return out;
}

TEST(TraceDeterminism, ExportIsByteIdenticalRunToRun)
{
    const Export a = runTraced(tracedConfig());
    const Export b = runTraced(tracedConfig());
    ASSERT_GT(a.recorded, 0u);
    EXPECT_EQ(a.traceJson, b.traceJson);
}

/** 64-bit FNV-1a digest of @p s. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(TraceDeterminism, ExportsMatchGoldenDigests)
{
    // Captured at commit 5bac912, whose intra-run parallel engine
    // exported the same trace bytes: the JSON is pinned to the byte,
    // not just to its run-to-run agreement.
    const Export e = runTraced(tracedConfig());
    EXPECT_EQ(e.traceJson.size(), 7057304u);
    EXPECT_EQ(fnv1a(e.traceJson), 0xaa457fe2c462fa8dull);
}

/** HDSearch s4r3 under overload with every traffic policy on, bucket
 *  replica 0 killed and detected only after the 2 ms deadline: the
 *  cell that emits Retry, BreakerSkip, BreakerOpen and Shed spans. */
core::ExperimentConfig
trafficPolicyConfig()
{
    auto cfg = core::ExperimentConfig::forHdSearch(40000);
    cfg.gen.warmup = msec(2);
    cfg.gen.duration = msec(12);
    svc::TopologyShape shape{4, 3, 0};
    shape.traffic.retry.deadline = msec(2);
    shape.traffic.breaker.failureThreshold = 2;
    shape.traffic.breaker.cooldown = msec(2);
    shape.traffic.admission.maxQueueDepth = 32;
    core::applyTopology(cfg, shape);
    cfg.faultPlan = fault::FaultPlan::replicaKill("hds-bucket", 0, msec(4),
                                                  msec(6), msec(3));
    cfg.seed = 42;
    return cfg;
}

TEST(TraceDeterminism, TrafficPolicySpansMatchGoldenDigest)
{
    // Captured at commit 8f84776 with the config's CoDel target
    // removed, the build before delay shedding was deleted.
    const Export e = runTraced(trafficPolicyConfig(), 1, 4);
    for (const char *name : {"\"retry\"", "\"breaker_skip\"",
                             "\"breaker\"", "\"shed\""}) {
        EXPECT_NE(e.traceJson.find(name), std::string::npos)
            << "missing span kind " << name;
    }
    EXPECT_EQ(e.traceJson.size(), 3022864u);
    EXPECT_EQ(fnv1a(e.traceJson), 0xef7f379d1272ba13ull);
}

TEST(TraceDeterminism, TracingOffChangesNothing)
{
    core::RunResult plain = core::runOnce(tracedConfig());
    // Recording rides entirely inside existing event callbacks, so
    // even the executed-event count must be untouched.
    const Export traced = runTraced(tracedConfig());
    EXPECT_EQ(plain.latency.mean, traced.result.latency.mean);
    EXPECT_EQ(plain.latency.p99, traced.result.latency.p99);
    EXPECT_EQ(plain.sent, traced.result.sent);
    EXPECT_EQ(plain.received, traced.result.received);
    EXPECT_EQ(plain.events, traced.result.events);
    EXPECT_EQ(plain.service.serviceWorkDispatched,
              traced.result.service.serviceWorkDispatched);
    EXPECT_EQ(plain.service.hedgesSent, traced.result.service.hedgesSent);
}

TEST(TraceDeterminism, ExportContainsTheExpectedSpanTaxonomy)
{
    const Export e = runTraced(tracedConfig());
    // Roots, sub-requests, queue/service splits and wire hops always
    // appear; the killed replica's window guarantees a fault marker,
    // and 300us hedging at this load guarantees hedges.
    for (const char *name :
         {"\"root\"", "\"sub\"", "\"queue\"", "\"service\"", "\"wire\"",
          "\"hedge\"", "\"fault\""}) {
        EXPECT_NE(e.traceJson.find(name), std::string::npos)
            << "missing span kind " << name;
    }
    // Perfetto-loadable Chrome trace-event envelope.
    EXPECT_NE(e.traceJson.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(e.traceJson.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceDeterminism, SamplingReducesRecordingTailKeepsSlowest)
{
    // Head sampling with no tail ring: 1-in-8 roots recorded.
    const Export sampled = runTraced(tracedConfig(), 8, 0);
    const Export full = runTraced(tracedConfig(), 1, 0);
    ASSERT_GT(sampled.recorded, 0u);
    EXPECT_LT(sampled.recorded, full.recorded / 2);

    // A tail ring records everything and filters at export; the
    // explainer then names the N slowest roots.
    core::ExperimentConfig cfg = tracedConfig();
    cfg.obs.trace = true;
    cfg.obs.sampleEveryN = 64; // sparse head sampling...
    cfg.obs.tailN = 3;         // ...but the 3 slowest always survive
    std::vector<obs::TraceRecorder::TailRoot> tail;
    cfg.obs.sink = [&tail](const obs::TraceRecorder *tr,
                           const obs::MetricsRegistry *) {
        tail = tr->slowestRoots(3);
    };
    core::runOnce(cfg);
    ASSERT_EQ(tail.size(), 3u);
    Time prev = kTimeNever;
    for (const auto &t : tail) {
        EXPECT_EQ(t.root.kind, obs::SpanKind::Root);
        EXPECT_FALSE(t.spans.empty());
        const Time latency = t.root.end - t.root.start;
        EXPECT_LE(latency, prev); // slowest first
        prev = latency;
    }
}

TEST(TraceDeterminism, KeyedMemcachedEmitsCacheSpans)
{
    auto cfg = core::ExperimentConfig::forMemcached(20000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(30);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    svc::CacheShape cache;
    cache.keys = 4096;
    cache.capacityEntries = 64; // tiny: forces misses and evictions
    core::applyCacheShape(cfg, cache);
    cfg.seed = 7;
    cfg.obs.trace = true;
    std::string json;
    cfg.obs.sink = [&json](const obs::TraceRecorder *tr,
                           const obs::MetricsRegistry *) {
        json = tr->exportJson();
    };
    const core::RunResult r = core::runOnce(cfg);
    ASSERT_GT(r.service.cacheMisses, 0u);
    for (const char *name : {"\"cache_hit\"", "\"cache_miss\"",
                             "\"cache_fill\"", "\"cache_evict\""}) {
        EXPECT_NE(json.find(name), std::string::npos)
            << "missing span kind " << name;
    }
    // The four cache kinds plus the store edge's sub-request and wire
    // spans, pinned to the byte. Captured at commit 02f9444.
    EXPECT_EQ(json.size(), 2279204u);
    EXPECT_EQ(fnv1a(json), 0x12e6c06702daa7b2ull);
}

} // namespace
} // namespace tpv
