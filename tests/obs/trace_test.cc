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
#include "obs/metrics.hh"
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

/** Run @p cfg with tracing + metrics on, returning the exports. */
struct Export
{
    std::string traceJson;
    std::string metricsCsv;
    std::uint64_t recorded = 0;
    core::RunResult result;
};

Export
runTraced(core::ExperimentConfig cfg, std::uint32_t sampleEveryN = 1,
          int tailN = 4, Time metricsPeriod = msec(1))
{
    Export out;
    cfg.obs.trace = true;
    cfg.obs.sampleEveryN = sampleEveryN;
    cfg.obs.tailN = tailN;
    cfg.obs.metricsPeriod = metricsPeriod;
    cfg.obs.sink = [&out](const obs::TraceRecorder *tr,
                          const obs::MetricsRegistry *m) {
        ASSERT_NE(tr, nullptr);
        out.traceJson = tr->exportJson();
        out.recorded = tr->recorded();
        if (m != nullptr)
            out.metricsCsv = m->csv();
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
    EXPECT_EQ(a.metricsCsv, b.metricsCsv);
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
    // exported the same trace bytes: the JSON and CSV are pinned to
    // the byte, not just to their run-to-run agreement.
    const Export e = runTraced(tracedConfig());
    EXPECT_EQ(e.traceJson.size(), 7057304u);
    EXPECT_EQ(fnv1a(e.traceJson), 0xaa457fe2c462fa8dull);
    EXPECT_EQ(e.metricsCsv.size(), 3508u);
    EXPECT_EQ(fnv1a(e.metricsCsv), 0x226b9c1753bd7fabull);
}

TEST(TraceDeterminism, TracingOffChangesNothing)
{
    core::RunResult plain = core::runOnce(tracedConfig());
    // Trace-only (no metrics ticks): recording rides entirely inside
    // existing event callbacks, so even the executed-event count must
    // be untouched.
    const Export traced = runTraced(tracedConfig(), 1, 4, 0);
    EXPECT_EQ(plain.latency.mean, traced.result.latency.mean);
    EXPECT_EQ(plain.latency.p99, traced.result.latency.p99);
    EXPECT_EQ(plain.sent, traced.result.sent);
    EXPECT_EQ(plain.received, traced.result.received);
    EXPECT_EQ(plain.events, traced.result.events);
    EXPECT_EQ(plain.service.serviceWorkDispatched,
              traced.result.service.serviceWorkDispatched);
    EXPECT_EQ(plain.service.hedgesSent, traced.result.service.hedgesSent);

    // Metrics ticks add their own (inert) events — everything but the
    // event count still matches the untraced run.
    const Export metered = runTraced(tracedConfig());
    EXPECT_EQ(plain.latency.mean, metered.result.latency.mean);
    EXPECT_EQ(plain.latency.p99, metered.result.latency.p99);
    EXPECT_EQ(plain.received, metered.result.received);
    EXPECT_EQ(plain.service.serviceWorkDispatched,
              metered.result.service.serviceWorkDispatched);
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

TEST(TraceDeterminism, MetricsCsvHasProbesAndTicks)
{
    const Export e = runTraced(tracedConfig());
    EXPECT_NE(e.metricsCsv.find("time_ns"), std::string::npos);
    EXPECT_NE(e.metricsCsv.find("qdepth.hds-bucket"), std::string::npos);
    EXPECT_NE(e.metricsCsv.find("inflight.hds-bucket"),
              std::string::npos);
    EXPECT_NE(e.metricsCsv.find("work_ns"), std::string::npos);
    // ~45ms of run at a 1ms period: tens of rows.
    int rows = 0;
    for (char c : e.metricsCsv)
        rows += c == '\n' ? 1 : 0;
    EXPECT_GE(rows, 20);
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
}

} // namespace
} // namespace tpv
