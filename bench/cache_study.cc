/**
 * @file
 * Cache study: what a finite memcached tier does to the latency a
 * client measures, on three axes the paper's single-cost model
 * cannot show.
 *
 *   capacity  Zipf(0.99) traffic over 64K keys against shrinking
 *             per-shard caches (16K -> 256 entries): the hit rate
 *             falls with capacity and p99 rises as the miss cascade
 *             pushes more requests through the ~500us backing store;
 *   eviction  the same starved capacity under LRU / SLRU / sampled
 *             LFU / random victim selection;
 *   hot keys  skew swept past 1.0 with keys pinned to shards: the
 *             hottest ranks concentrate on one shard's cache and its
 *             queue melts while the other seven idle (max/mean
 *             dispatch imbalance across the 8 shards);
 *   cold      the same cache starting empty — the flash-crowd
 *             restart transient — against the prewarmed baseline.
 *
 * The binary exits non-zero unless the LRU hit rate strictly falls
 * as capacity shrinks (16K > 4K > 1K > 256), the cold 4K cache misses
 * more than the warm one, and a final serial re-run reproduces the
 * parallel grid bit for bit. BENCH_cache.json tracks the headline
 * numbers per commit.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

namespace {

constexpr double kQps = 20e3;
constexpr std::uint64_t kKeys = 1 << 16;

svc::CacheShape
shape(std::uint64_t capacity,
      svc::EvictionPolicy eviction = svc::EvictionPolicy::Lru,
      double skew = 0.99, bool cold = false)
{
    svc::CacheShape s;
    s.keys = kKeys;
    s.skew = skew;
    s.capacityEntries = capacity;
    s.eviction = eviction;
    s.coldStart = cold;
    return s;
}

/** Mean per-run cache hit rate. */
double
hitRate(const RepeatedResult &r)
{
    double total = 0;
    for (const auto &run : r.runs) {
        const double lookups =
            static_cast<double>(run.service.cacheHits +
                                run.service.cacheMisses);
        total += lookups > 0
                     ? static_cast<double>(run.service.cacheHits) /
                           lookups
                     : 0;
    }
    return total / static_cast<double>(r.runs.size());
}

double
missesPerRun(const RepeatedResult &r)
{
    double total = 0;
    for (const auto &run : r.runs)
        total += static_cast<double>(run.service.cacheMisses);
    return total / static_cast<double>(r.runs.size());
}

/** Mean per-run max/mean dispatch imbalance across the cache tier's
 *  shards — the hot-key melt metric (1.0 = perfectly even). */
double
shardImbalance(const RepeatedResult &r)
{
    double total = 0;
    int counted = 0;
    for (const auto &run : r.runs) {
        for (const auto &tier : run.service.tiers) {
            if (tier.name != "mc-cache" || tier.shardRequests.empty())
                continue;
            const double mx = static_cast<double>(
                *std::max_element(tier.shardRequests.begin(),
                                  tier.shardRequests.end()));
            double sum = 0;
            for (std::uint64_t s : tier.shardRequests)
                sum += static_cast<double>(s);
            const double mean =
                sum / static_cast<double>(tier.shardRequests.size());
            if (mean > 0) {
                total += mx / mean;
                ++counted;
            }
        }
    }
    return counted > 0 ? total / counted : 0;
}

} // namespace

int
main()
{
    const BenchOptions opt = BenchOptions::fromEnv();
    std::printf("Cache: memcached s8, %llu keys, %.0fK QPS, finite "
                "per-shard caches with a ~500us backing store\n",
                static_cast<unsigned long long>(kKeys), kQps / 1000.0);
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    // One grid, all axes: the capacity ladder, the eviction panel at
    // the starved capacity, the skew pair for the hot-key melt, and
    // the cold-start transient.
    const std::vector<svc::CacheShape> shapes = {
        shape(1 << 14),                                 // comfortable
        shape(1 << 12),                                 // working-set
        shape(1 << 10),                                 // starved
        shape(1 << 8),                                  // famine
        shape(1 << 10, svc::EvictionPolicy::Slru),      // eviction x3
        shape(1 << 10, svc::EvictionPolicy::Lfu),
        shape(1 << 10, svc::EvictionPolicy::Random),
        shape(1 << 12, svc::EvictionPolicy::Lru, 0.6),  // mild skew
        shape(1 << 12, svc::EvictionPolicy::Lru, 1.4),  // hot-key melt
        shape(1 << 12, svc::EvictionPolicy::Lru, 0.99,
              true),                                    // cold start
    };

    auto factory = [&](const std::string &label,
                       const svc::CacheShape &) {
        auto cfg =
            withTiming(ExperimentConfig::forMemcached(kQps), opt);
        cfg = configFor("HP-SMToff", cfg);
        cfg.memcached.shards = 8;
        cfg.label = label;
        return cfg;
    };

    const auto grid = sweep<CacheAxis>({"HP"}, shapes, factory,
                                       opt.runner(), progress);
    auto cellOf = [&](const svc::CacheShape &s) -> const StudyCell & {
        return grid.at("HP/" + s.label(), kQps);
    };

    TableReporter table("hit rate / p99 / shard imbalance per shape");
    table.header({"shape", "hit_rate", "p99_us", "misses/run",
                  "max/mean_shard"});
    std::vector<BenchMetric> metrics;
    for (const svc::CacheShape &s : shapes) {
        const StudyCell &cell = cellOf(s);
        table.row(s.label(),
                  {hitRate(cell.result), cell.result.meanP99(),
                   missesPerRun(cell.result),
                   shardImbalance(cell.result)});
        metrics.push_back(
            {s.label() + "_hit_rate", hitRate(cell.result), "ratio"});
        metrics.push_back(
            {s.label() + "_p99_us", cell.result.meanP99(), "us"});
    }
    table.print();

    // Headline 1: the cache wall — hit rate falls and p99 rises as
    // capacity shrinks.
    const double hitBig = hitRate(cellOf(shapes[0]).result);
    const double hitSmall = hitRate(cellOf(shapes[3]).result);
    const double p99Big = cellOf(shapes[0]).result.meanP99();
    const double p99Small = cellOf(shapes[3]).result.meanP99();
    std::printf("\ncache wall: 16K entries %.0f%% hits / p99 %.0fus "
                "-> 256 entries %.0f%% hits / p99 %.0fus\n",
                hitBig * 100, p99Big, hitSmall * 100, p99Small);
    metrics.push_back(
        {"wall_p99_ratio", p99Small / std::max(p99Big, 1.0), "ratio"});

    // Headline 2: the hot-key melt — skew past 1 concentrates
    // dispatches on the hot shard.
    const double imbMild = shardImbalance(cellOf(shapes[7]).result);
    const double imbHot = shardImbalance(cellOf(shapes[8]).result);
    std::printf("hot-key melt: max/mean shard load %.2f at z0.6 -> "
                "%.2f at z1.4\n",
                imbMild, imbHot);
    metrics.push_back({"shard_imbalance_z0.6", imbMild, "ratio"});
    metrics.push_back({"shard_imbalance_z1.4", imbHot, "ratio"});

    // Headline 3: the cold-start transient — extra misses before the
    // cache warms.
    const double missWarm = missesPerRun(cellOf(shapes[1]).result);
    const double missCold = missesPerRun(cellOf(shapes[9]).result);
    std::printf("cold start: %.0f misses/run warm -> %.0f cold\n",
                missWarm, missCold);
    metrics.push_back({"cold_extra_misses", missCold - missWarm,
                       "misses/run"});

    // The claims behind headlines 1 and 3.
    bool wallHolds = true;
    for (std::size_t i = 1; i < 4; ++i) {
        if (!(hitRate(cellOf(shapes[i]).result) <
              hitRate(cellOf(shapes[i - 1]).result)))
            wallHolds = false;
    }
    const bool coldMissesMore = missCold > missWarm;
    std::printf("hit rate strictly falls as LRU capacity shrinks: %s\n",
                wallHolds ? "PASS" : "FAIL");
    std::printf("cold cache misses more than warm: %s\n",
                coldMissesMore ? "PASS" : "FAIL");
    metrics.push_back(
        {"hit_rate_falls_with_capacity", wallHolds ? 1.0 : 0.0, "bool"});
    metrics.push_back(
        {"cold_misses_more", coldMissesMore ? 1.0 : 0.0, "bool"});

    // Determinism gate: the keyed cache grid, re-run serially, must
    // match the parallel run above bit for bit.
    RunnerOptions serial = opt.runner();
    serial.parallelism = 1;
    const auto check = sweep<CacheAxis>({"HP"}, shapes, factory, serial);
    bool identical = grid.cells.size() == check.cells.size();
    for (std::size_t i = 0; identical && i < grid.cells.size(); ++i) {
        identical = grid.cells[i].result.avgPerRun ==
                        check.cells[i].result.avgPerRun &&
                    grid.cells[i].result.p99PerRun ==
                        check.cells[i].result.p99PerRun;
    }
    std::printf("cache grid serial-vs-parallel bit-identical: %s\n",
                identical ? "PASS" : "FAIL");
    metrics.push_back(
        {"serial_parallel_identical", identical ? 1.0 : 0.0, "bool"});
    writeBenchJson("cache", metrics, &opt);
    return wallHolds && coldMissesMore && identical ? 0 : 1;
}
