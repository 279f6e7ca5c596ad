/** @file End-to-end keyed cache runs through the study layer:
 *  serial-vs-parallel bit-identical grids, hit/miss plumbing into
 *  ServiceStats, and the sweep<CacheAxis> cell labels. */

#include "core/study.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tpv {
namespace core {
namespace {

svc::CacheShape
cacheShape(std::uint64_t keys, std::uint64_t capacity,
           svc::EvictionPolicy eviction = svc::EvictionPolicy::Lru)
{
    svc::CacheShape s;
    s.keys = keys;
    s.capacityEntries = capacity;
    s.eviction = eviction;
    return s;
}

ExperimentConfig
quickKeyedConfig(double qps)
{
    auto cfg = ExperimentConfig::forMemcached(qps);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(25);
    cfg.memcached.shards = 4;
    return cfg;
}

auto
quickFactory()
{
    return [](const std::string &label, const svc::CacheShape &shape) {
        auto cfg = quickKeyedConfig(20e3);
        // The "nocache" control cell runs on the single-tier server:
        // the sharded cluster routes on the key, so it needs a shape.
        if (!shape.enabled())
            cfg.memcached.shards = 1;
        cfg.label = label;
        return cfg;
    };
}

TEST(CacheGrid, KeyedRunCountsHitsAndMisses)
{
    auto cfg = quickKeyedConfig(20e3);
    applyCacheShape(cfg, cacheShape(1 << 12, 1 << 8));
    const RunResult r = runOnce(cfg);
    EXPECT_GT(r.received, 0u);
    EXPECT_GT(r.service.cacheHits, 0u);
    EXPECT_GT(r.service.cacheMisses, 0u);
    // Every miss cascades to the backing store and fills the cache.
    EXPECT_EQ(r.service.cacheFills, r.service.cacheMisses);
}

TEST(CacheGrid, BiggerCacheHitsMore)
{
    auto run = [](std::uint64_t capacity) {
        auto cfg = quickKeyedConfig(20e3);
        applyCacheShape(cfg, cacheShape(1 << 14, capacity));
        const RunResult r = runOnce(cfg);
        return static_cast<double>(r.service.cacheHits) /
               static_cast<double>(r.service.cacheHits +
                                   r.service.cacheMisses);
    };
    const double big = run(1 << 13);
    const double small = run(1 << 6);
    EXPECT_GT(big, small + 0.1);
}

TEST(CacheGrid, ColdStartMissesMoreThanPrewarmed)
{
    auto run = [](bool cold) {
        auto cfg = quickKeyedConfig(20e3);
        svc::CacheShape s = cacheShape(1 << 12, 1 << 10);
        s.coldStart = cold;
        applyCacheShape(cfg, s);
        return runOnce(cfg).service.cacheMisses;
    };
    EXPECT_GT(run(true), run(false));
}

TEST(CacheGrid, DisabledShapeMatchesBaselineBitForBit)
{
    // The knobs-off guarantee, stated end to end: applying a disabled
    // CacheShape must leave the run bit-identical to never touching
    // the cache axis at all. Without a shape memcached runs on the
    // single-tier server (the sharded cluster needs a keyspace).
    auto base = quickKeyedConfig(20e3);
    base.memcached.shards = 1;
    auto touched = base;
    applyCacheShape(touched, svc::CacheShape{});
    const RunResult a = runOnce(base);
    const RunResult b = runOnce(touched);
    EXPECT_EQ(a.latency.mean, b.latency.mean);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(b.service.cacheHits, 0u);
    EXPECT_EQ(b.service.cacheMisses, 0u);
}

TEST(CacheGrid, SerialAndParallelCacheGridsAreIdentical)
{
    const std::vector<std::string> configs{"A"};
    const std::vector<svc::CacheShape> shapes{
        cacheShape(1 << 12, 1 << 8),
        cacheShape(1 << 12, 1 << 8, svc::EvictionPolicy::Lfu),
    };

    RunnerOptions serial;
    serial.runs = 2;
    serial.baseSeed = 31;
    serial.parallelism = 1;
    RunnerOptions parallel = serial;
    parallel.parallelism = 4;

    const auto a =
        sweep<CacheAxis>(configs, shapes, quickFactory(), serial);
    const auto b =
        sweep<CacheAxis>(configs, shapes, quickFactory(), parallel);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t c = 0; c < a.cells.size(); ++c) {
        const StudyCell &ca = a.cells[c];
        const StudyCell &cb = b.cells[c];
        EXPECT_EQ(ca.config, cb.config);
        ASSERT_EQ(ca.result.runs.size(), cb.result.runs.size());
        for (std::size_t r = 0; r < ca.result.runs.size(); ++r) {
            // Bit-identical per-repetition samples, any parallelism.
            EXPECT_EQ(ca.result.avgPerRun[r], cb.result.avgPerRun[r])
                << ca.config << " run " << r;
            EXPECT_EQ(ca.result.p99PerRun[r], cb.result.p99PerRun[r])
                << ca.config << " run " << r;
            EXPECT_EQ(ca.result.runs[r].service.cacheHits,
                      cb.result.runs[r].service.cacheHits);
            EXPECT_EQ(ca.result.runs[r].service.cacheMisses,
                      cb.result.runs[r].service.cacheMisses);
        }
    }
}

TEST(CacheGrid, SweepLabelsNameTheShapes)
{
    RunnerOptions opt;
    opt.runs = 1;
    opt.parallelism = 2;
    const std::vector<svc::CacheShape> shapes{
        svc::CacheShape{}, // disabled: the "nocache" control cell
        cacheShape(1 << 16, 1 << 12),
    };
    const auto grid = sweep<CacheAxis>({"HP"}, shapes, quickFactory(), opt);
    EXPECT_EQ(grid.configs(),
              (std::vector<std::string>{"HP/nocache",
                                        "HP/z0.99k64Kc4K-lru"}));
}

} // namespace
} // namespace core
} // namespace tpv
