/**
 * @file
 * The three benchmark workloads and the paper-shape claims each must
 * keep. All are open loop: simulated Poisson senders whose schedule
 * ignores completions.
 *
 *  paper_memcached  Figs 2/3 and Table IV: {LP,HP} client x {SMToff,
 *                   SMTon, C1Eon} server x the seven 10K-500K QPS
 *                   loads at a 200 ms window. The hw and sim layers
 *                   carry the cost (client wakes, DVFS transitions);
 *                   the service layer does almost nothing.
 *  fanout_hdsearch  HDSearch s4r3 at 2K QPS over a 1 s window, every
 *                   hedge/traffic policy, healthy and with bucket
 *                   replica 0 killed for 40% of the window: ~60
 *                   events/request through svc Fanout, net and fault.
 *                   The busy-wait client keeps hw cheap.
 *  keyed_cache      memcached s8 with a 64K-key Zipf 0.99 keyspace and
 *                   4K-entry LRU shard caches: route-one routing, cache
 *                   lookups, fills, evictions and store cascades — the
 *                   service layer used differently from scatter-gather.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.hh"
#include "fault/fault.hh"
#include "stats/descriptive.hh"

namespace perfbench {

using tpv::Time;
using tpv::msec;
using tpv::usec;
namespace core = tpv::core;
namespace hw = tpv::hw;
namespace svc = tpv::svc;

namespace {

Time
scaled(Time t, double scale)
{
    return std::max<Time>(1, static_cast<Time>(static_cast<double>(t) *
                                               scale));
}

void
setClient(core::ExperimentConfig &cfg, bool lp)
{
    cfg.client = lp ? hw::HwConfig::clientLP() : hw::HwConfig::clientHP();
}

void
paperMemcached(double scale, Workload &wl)
{
    struct Server
    {
        const char *name;
        hw::HwConfig cfg;
    };
    const std::vector<Server> servers = {
        {"SMToff", hw::HwConfig::serverBaseline()},
        {"SMTon", hw::HwConfig::serverSmtOn()},
        {"C1Eon", hw::HwConfig::serverC1eOn()},
    };
    const std::vector<double> loads = {10e3,  50e3,  100e3, 200e3,
                                       300e3, 400e3, 500e3};
    for (bool lp : {true, false}) {
        for (const Server &s : servers) {
            for (double qps : loads) {
                Cell c;
                c.cfg = core::ExperimentConfig::forMemcached(qps);
                setClient(c.cfg, lp);
                c.cfg.server = s.cfg;
                c.cfg.gen.warmup = scaled(msec(20), scale);
                c.cfg.gen.duration = scaled(msec(200), scale);
                c.lp = lp;
                c.group = std::to_string(static_cast<int>(qps));
                c.label = std::string(lp ? "LP-" : "HP-") + s.name + "@" +
                          c.group;
                c.cfg.label = c.label;
                wl.cells.push_back(std::move(c));
            }
        }
    }
    wl.repsPerPass = 1;
    // LP-SMToff at 100K QPS: a moderate load where client wakes and
    // DVFS dominate the host cost.
    wl.ladderCell = 2;
}

void
fanoutHdsearch(double scale, Workload &wl)
{
    struct Policy
    {
        const char *name;
        svc::TopologyShape shape;
    };
    svc::TopologyShape retry{4, 3, 0, svc::HedgePolicy::None};
    retry.traffic.retry.deadline = msec(2);
    retry.traffic.retry.maxAttempts = 3;
    retry.traffic.breaker.failureThreshold = 5;
    retry.traffic.breaker.cooldown = msec(5);
    const std::vector<Policy> policies = {
        {"none", {4, 3, 0, svc::HedgePolicy::None}},
        {"fixed400us", {4, 3, usec(400), svc::HedgePolicy::Fixed}},
        {"adaptive", {4, 3, usec(400), svc::HedgePolicy::Adaptive}},
        {"tied", {4, 3, 0, svc::HedgePolicy::Tied}},
        {"retry+breaker", retry},
    };
    const Time warmup = scaled(msec(100), scale);
    const Time duration = scaled(msec(1000), scale);
    for (bool lp : {true, false}) {
        for (const Policy &p : policies) {
            for (bool kill : {false, true}) {
                Cell c;
                c.cfg = core::ExperimentConfig::forHdSearch(2000);
                setClient(c.cfg, lp);
                c.cfg.gen.warmup = warmup;
                c.cfg.gen.duration = duration;
                // Heavy-tailed scans: the regime where hedging matters.
                c.cfg.hdsearch.bucketSd = c.cfg.hdsearch.bucketMean;
                core::applyTopology(c.cfg, p.shape);
                if (kill) {
                    c.cfg.faultPlan = tpv::fault::FaultPlan::replicaKill(
                        "hds-bucket", 0, warmup + duration * 3 / 10,
                        duration * 4 / 10, scaled(msec(25), scale));
                }
                c.lp = lp;
                c.healthy = !kill;
                c.group = p.name;
                c.label = std::string(lp ? "LP/" : "HP/") + p.name +
                          (kill ? "/kill" : "/healthy");
                c.cfg.label = c.label;
                wl.cells.push_back(std::move(c));
            }
        }
    }
    wl.repsPerPass = 5;
    wl.ladderCell = 0; // LP, no hedging, healthy
}

void
keyedCache(double scale, Workload &wl)
{
    struct Shape
    {
        const char *name;
        double qps;
        bool cold;
    };
    const std::vector<Shape> shapes = {
        {"20K-warm", 20e3, false},
        {"100K-warm", 100e3, false},
        {"20K-cold", 20e3, true},
    };
    for (bool lp : {true, false}) {
        for (const Shape &s : shapes) {
            Cell c;
            c.cfg = core::ExperimentConfig::forMemcached(s.qps);
            setClient(c.cfg, lp);
            c.cfg.gen.warmup = scaled(msec(20), scale);
            c.cfg.gen.duration = scaled(msec(200), scale);
            c.cfg.memcached.shards = 8;
            svc::CacheShape cache;
            cache.keys = 1 << 16;
            cache.skew = 0.99;
            cache.capacityEntries = 1 << 12;
            cache.eviction = svc::EvictionPolicy::Lru;
            cache.coldStart = s.cold;
            core::applyCacheShape(c.cfg, cache);
            c.lp = lp;
            c.group = s.name;
            c.label = std::string(lp ? "LP/" : "HP/") + s.name;
            c.cfg.label = c.label;
            wl.cells.push_back(std::move(c));
        }
    }
    wl.repsPerPass = 10;
    wl.ladderCell = 0; // LP, 20K warm
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    return tpv::stats::Summary::of(xs).median;
}

template <typename... Args>
std::string
fmt(const char *f, Args... args)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, f, args...);
    return buf;
}

/** Per cell, the runs that completed (a thrown run has no result). */
std::vector<std::vector<const core::RunResult *>>
byCell(const Workload &wl, const std::vector<RunRecord> &runs)
{
    std::vector<std::vector<const core::RunResult *>> out(wl.cells.size());
    for (const RunRecord &r : runs) {
        if (!r.threw)
            out[r.cell].push_back(&r.result);
    }
    return out;
}

std::vector<Claim>
memcachedClaims(const Workload &wl, const std::vector<RunRecord> &runs)
{
    // LP inflates average latency over HP at every load (Figs 2/3):
    // medians over server configs and repetitions.
    std::map<std::string, std::vector<double>> lp, hp;
    for (const RunRecord &r : runs) {
        if (r.threw)
            continue;
        const Cell &c = wl.cells[r.cell];
        (c.lp ? lp : hp)[c.group].push_back(r.result.avgUs());
    }
    std::vector<Claim> out;
    for (const auto &[load, lpAvg] : lp) {
        const double l = median(lpAvg), h = median(hp[load]);
        out.push_back({l > h, "LP avg > HP avg at " + load + " QPS: " +
                                  fmt("%.1f us vs %.1f us", l, h)});
    }
    return out;
}

std::vector<Claim>
fanoutClaims(const Workload &wl, const std::vector<RunRecord> &runs)
{
    // Under the replica kill, waiting for the primary (none) degrades
    // p99 more than every policy that buys the tail back.
    std::vector<Claim> out;
    const auto cells = byCell(wl, runs);
    for (bool lp : {true, false}) {
        std::map<std::string, std::vector<double>> healthy, killed;
        for (std::size_t i = 0; i < wl.cells.size(); ++i) {
            const Cell &c = wl.cells[i];
            if (c.lp != lp)
                continue;
            for (const core::RunResult *r : cells[i])
                (c.healthy ? healthy : killed)[c.group].push_back(
                    r->p99Us());
        }
        std::map<std::string, double> ratio;
        for (const auto &[policy, h] : healthy)
            ratio[policy] = median(killed[policy]) / median(h);
        for (const auto &[policy, rt] : ratio) {
            if (policy == "none")
                continue;
            out.push_back(
                {ratio["none"] > rt,
                 std::string(lp ? "LP" : "HP") +
                     " kill p99 degradation none > " + policy + ": " +
                     fmt("%.2fx vs %.2fx", ratio["none"], rt)});
        }
    }
    return out;
}

std::vector<Claim>
keyedClaims(const Workload &wl, const std::vector<RunRecord> &runs)
{
    std::map<std::string, std::uint64_t> hits, lookups;
    for (const RunRecord &r : runs) {
        if (r.threw)
            continue;
        const Cell &c = wl.cells[r.cell];
        hits[c.label] += r.result.service.cacheHits;
        lookups[c.label] +=
            r.result.service.cacheHits + r.result.service.cacheMisses;
    }
    auto rate = [&](const std::string &label) {
        return lookups[label] > 0 ? static_cast<double>(hits[label]) /
                                        static_cast<double>(lookups[label])
                                  : 0.0;
    };
    std::vector<Claim> out;
    for (const Cell &c : wl.cells) {
        const double h = rate(c.label);
        out.push_back({h > 0 && h < 1,
                       c.label + " hit rate in (0, 1): " +
                           fmt("%.4f", h)});
    }
    for (const char *client : {"LP", "HP"}) {
        const std::string p = client;
        const double cold = rate(p + "/20K-cold");
        const double warm = rate(p + "/20K-warm");
        out.push_back({cold < warm, p + " cold-start hit rate < warm: " +
                                        fmt("%.4f vs %.4f", cold, warm)});
    }
    return out;
}

} // namespace

bool
makeWorkload(const std::string &name, double scale, Workload *out)
{
    Workload wl;
    wl.name = name;
    if (name == "paper_memcached")
        paperMemcached(scale, wl);
    else if (name == "fanout_hdsearch")
        fanoutHdsearch(scale, wl);
    else if (name == "keyed_cache")
        keyedCache(scale, wl);
    else
        return false;
    *out = std::move(wl);
    return true;
}

std::vector<Claim>
checkClaims(const Workload &wl, const std::vector<RunRecord> &runs)
{
    if (wl.name == "paper_memcached")
        return memcachedClaims(wl, runs);
    if (wl.name == "fanout_hdsearch")
        return fanoutClaims(wl, runs);
    return keyedClaims(wl, runs);
}

} // namespace perfbench
