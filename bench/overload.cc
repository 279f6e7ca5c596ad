/**
 * @file
 * Overload study: what admission control buys when the offered load
 * sweeps past the service's capacity.
 *
 * HDSearch s4r1 (all four shards' scans on one replica machine:
 * 4 x ~300us of bucket work per query on 8 workers, a ~6.6K QPS
 * ceiling) is driven from below capacity to ~5x capacity under two
 * policies:
 *
 *   none   queue everything: past capacity the backlog grows without
 *          bound, every reply is hopelessly late, and goodput
 *          (replies within the SLO) falls off a cliff;
 *   depth  shed at a worker-queue depth limit: the excess is refused
 *          up front, admitted requests ride short queues, goodput
 *          plateaus near capacity.
 *
 * Reported per (load, policy): goodput in KQPS, the fraction of
 * offered load answered within the SLO, and sheds per run. The bench
 * exits 1 if depth shedding fails to beat the no-policy goodput at
 * any load past capacity, or if a final serial re-run does not
 * reproduce the parallel grid bit for bit (the golden-determinism
 * guarantee extended to shedding runs). BENCH_overload.json tracks
 * the headline numbers per commit.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

namespace {

struct Policy
{
    const char *name;
    svc::TrafficPolicy traffic;
};

/** Mean per-run goodput: in-window replies that met the SLO, per
 *  second of measured window. */
double
goodputQps(const RepeatedResult &r, Time duration)
{
    double total = 0;
    for (const auto &run : r.runs)
        total += static_cast<double>(run.receivedWithinSlo);
    const double secs =
        static_cast<double>(duration) / 1e9;
    return total / static_cast<double>(r.runs.size()) / secs;
}

double
shedsPerRun(const RepeatedResult &r)
{
    double total = 0;
    for (const auto &run : r.runs)
        total += static_cast<double>(run.service.requestsShedDepth);
    return total / static_cast<double>(r.runs.size());
}

} // namespace

int
main()
{
    const BenchOptions opt = BenchOptions::fromEnv();
    const Time slo = msec(3);
    // Bucket tier: one replica machine with 8 workers serves all 4
    // shards' ~300us scans => 4 x 300us of work per query on 8
    // threads, a ~6.6K QPS ceiling; the sweep brackets it.
    const double capacityQps = 6600;
    const std::vector<double> loads = {2000, 4000, 8000, 16000, 32000};
    std::printf("Overload: HDSearch s4r1, offered load vs ~6.6K QPS "
                "capacity, SLO %s\n",
                formatTime(slo).c_str());
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    svc::TrafficPolicy depth;
    depth.admission.maxQueueDepth = 4;
    const std::vector<Policy> policies = {
        {"none", svc::TrafficPolicy{}},
        {"depth", depth},
    };
    std::vector<svc::TrafficPolicy> policyList;
    std::vector<std::string> loadLabels;
    for (const Policy &p : policies)
        policyList.push_back(p.traffic);
    for (double qps : loads)
        loadLabels.push_back(std::to_string(static_cast<int>(qps)));

    auto factory = [&](const std::string &label,
                       const svc::TrafficPolicy &) {
        auto cfg = withTiming(
            ExperimentConfig::forHdSearch(std::stod(label)), opt);
        cfg = configFor("HP-SMToff", cfg);
        // Fixed scan cost: shard queues move in lockstep, so a
        // depth shed refuses whole queries. With scan variance the
        // queues desynchronise and overload sheds hit queries
        // partially (3 admitted scans wasted per refused one) — a
        // real effect, but it would muddy the capacity story this
        // bench isolates.
        cfg.hdsearch.bucketSd = 0;
        cfg.sloLatency = slo;
        cfg.label = label;
        return cfg;
    };
    auto cellTag = [&](const Policy &p) {
        const std::string tag = p.traffic.label();
        return tag.empty() ? std::string("none") : tag;
    };

    const auto grid = sweep<TrafficPolicyAxis>(loadLabels, policyList,
                                               factory, opt.runner(),
                                               progress);

    TableReporter table("goodput (KQPS within SLO) vs offered load");
    table.header({"offered_qps", "none", "depth",
                  "none_frac", "depth_frac", "sheds/run_depth"});
    std::vector<BenchMetric> metrics;
    bool depthWins = true;
    for (std::size_t li = 0; li < loads.size(); ++li) {
        const double qps = loads[li];
        std::vector<double> gp;
        for (const Policy &p : policies) {
            const auto &cell =
                grid.at(loadLabels[li] + "/" + cellTag(p), qps);
            gp.push_back(goodputQps(cell.result, opt.duration));
        }
        const auto &depthCell =
            grid.at(loadLabels[li] + "/" + cellTag(policies[1]), qps);
        table.row(loadLabels[li],
                  {gp[0] / 1000.0, gp[1] / 1000.0,
                   gp[0] / qps, gp[1] / qps,
                   shedsPerRun(depthCell.result)});
        if (qps > capacityQps && gp[1] <= gp[0])
            depthWins = false;
        for (std::size_t pi = 0; pi < policies.size(); ++pi)
            metrics.push_back({std::string(policies[pi].name) + "_" +
                                   loadLabels[li] + "_goodput_qps",
                               gp[pi], "qps"});
    }
    table.print();

    // The headline: past capacity the no-policy goodput collapses
    // while the depth limit holds its plateau.
    const double topQps = loads.back();
    const std::string topLabel = loadLabels.back();
    const double noneTop = goodputQps(
        grid.at(topLabel + "/" + cellTag(policies[0]), topQps).result,
        opt.duration);
    const double depthTop = goodputQps(
        grid.at(topLabel + "/" + cellTag(policies[1]), topQps).result,
        opt.duration);
    std::printf("\nat %.0f QPS offered: none %.1fK goodput, depth-shed "
                "%.1fK\n",
                topQps, noneTop / 1000.0, depthTop / 1000.0);
    // A ratio exists only while the baseline still answers something;
    // past a full collapse the shedding goodput stands on its own.
    const bool noneCollapsed = noneTop <= 0;
    if (noneCollapsed)
        metrics.push_back({"cliff_depth_goodput_qps", depthTop, "qps"});
    else
        metrics.push_back({"cliff_goodput_ratio", depthTop / noneTop, "ratio"});
    metrics.push_back(
        {"none_collapsed", noneCollapsed ? 1.0 : 0.0, "bool"});
    std::printf("depth shedding beats no policy at every load past "
                "capacity: %s\n",
                depthWins ? "PASS" : "FAIL");
    metrics.push_back(
        {"depth_beats_none_past_capacity", depthWins ? 1.0 : 0.0, "bool"});

    // Determinism: the shedding grid, re-run serially, must match the
    // (default-width) run above bit for bit.
    RunnerOptions serial = opt.runner();
    serial.parallelism = 1;
    const auto check =
        sweep<TrafficPolicyAxis>(loadLabels, policyList, factory, serial);
    bool identical = grid.cells.size() == check.cells.size();
    for (std::size_t i = 0; identical && i < grid.cells.size(); ++i) {
        identical = grid.cells[i].result.avgPerRun ==
                        check.cells[i].result.avgPerRun &&
                    grid.cells[i].result.p99PerRun ==
                        check.cells[i].result.p99PerRun;
    }
    std::printf("shedding grid serial-vs-parallel bit-identical: %s\n",
                identical ? "PASS" : "FAIL");
    metrics.push_back(
        {"serial_parallel_identical", identical ? 1.0 : 0.0, "bool"});
    writeBenchJson("overload", metrics, &opt);
    return depthWins && identical ? 0 : 1;
}
