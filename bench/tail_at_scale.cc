/**
 * @file
 * Tail-at-scale study: how service topology shapes the latency tail.
 *
 * The paper's HDSearch cluster fans every query out to a fixed four
 * shards; real measurement studies sweep the fan-out. This driver runs
 * the HDSearch workload across topology shapes — widening shard
 * counts, then adding a replica per shard, then hedging slow shards —
 * at a fixed offered load. Expected shape (Dean & Barroso's "tail at
 * scale"): widening the fan-out drags the mean toward the scan tail
 * because every query waits for its slowest shard, while hedged
 * requests buy the tail back at a measurable duplicate-work cost,
 * which the ServiceStats hedge counters price exactly.
 *
 * The driver checks both halves of that claim and exits 1 unless
 * p99 rises with the fan-out (s1 < s4 < s8) and hedging at 400us
 * lowers p99 below the unhedged s8r2 cell.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

int
main()
{
    const BenchOptions opt = BenchOptions::fromEnv();
    const double qps = 1000;
    std::printf("Tail-at-scale: HDSearch topology sweep @ %.0f QPS, "
                "heavy-tailed scans (cv = 1)\n",
                qps);
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    // Widen the fan-out, then replicate, then hedge. With the stock
    // cv = 0.3 scans the tail is queueing/idle-state dominated and
    // hedging only buys duplicate work; heavy-tailed scans (cv = 1,
    // the regime Dean & Barroso describe) are where a hedge beats the
    // straggler. Delays bracket the scan p90/p99.
    const std::vector<svc::TopologyShape> shapes = {
        {1, 1, 0},           {4, 1, 0},          {8, 1, 0},
        {8, 2, 0},           {8, 2, usec(900)},  {8, 2, usec(400)},
    };

    const auto grid = sweep<TopologyAxis>(
        {"HP"}, shapes,
        [&](const std::string &label, const svc::TopologyShape &) {
            auto cfg = withTiming(ExperimentConfig::forHdSearch(qps), opt);
            cfg = configFor(label + "-SMToff", cfg);
            cfg.hdsearch.bucketSd = cfg.hdsearch.bucketMean;
            return cfg;
        },
        opt.runner(), progress);

    TableReporter table(
        "HDSearch latency and hedging cost by topology shape");
    table.header({"shape", "avg_ms", "p99_ms", "hedges/req", "dup_work%"});
    for (const auto &shape : shapes) {
        const auto &cell = grid.at("HP/" + shape.label(), qps);
        // Aggregate hedge counters across repetitions.
        double hedges = 0, requests = 0, dupWork = 0, allWork = 0;
        for (const auto &run : cell.result.runs) {
            hedges += static_cast<double>(run.service.hedgesSent);
            requests +=
                static_cast<double>(run.service.requestsReceived);
            dupWork += static_cast<double>(
                run.service.duplicateWorkDispatched);
            allWork += static_cast<double>(
                run.service.serviceWorkDispatched);
        }
        table.row(shape.label(),
                  {cell.result.medianAvg() / 1000.0,
                   cell.result.medianP99() / 1000.0,
                   requests > 0 ? hedges / requests : 0.0,
                   allWork > 0 ? 100.0 * dupWork / allWork : 0.0});
    }
    table.print();

    // The headline comparison: hedging vs pure width at equal shards.
    const auto &wide = grid.at("HP/s8r2", qps).result;
    const auto &hedged = grid.at("HP/s8r2+h400us", qps).result;
    std::printf("\np99 ratio hedged/unhedged at s8r2: %.3f "
                "(< 1 means hedging bought the tail back)\n",
                hedged.medianP99() / wide.medianP99());

    // The claim: every query waits for its slowest shard, so p99
    // rises with the fan-out, and a hedge buys the tail back.
    const auto p99Of = [&](const char *cell) {
        return grid.at(std::string("HP/") + cell, qps).result.medianP99();
    };
    const bool widens =
        p99Of("s1") < p99Of("s4") && p99Of("s4") < p99Of("s8");
    const bool hedgeWins = hedged.medianP99() < wide.medianP99();
    const bool ok = widens && hedgeWins;
    std::printf("claim %s: p99 rises with fan-out s1 < s4 < s8 (%s), "
                "hedging at 400us lowers s8r2 p99 (%s)\n",
                ok ? "ok" : "FAIL", widens ? "yes" : "no",
                hedgeWins ? "yes" : "no");
    return ok ? 0 : 1;
}
