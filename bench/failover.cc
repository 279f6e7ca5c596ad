/**
 * @file
 * Failover study: what a mid-run replica kill costs each hedging
 * policy, and what it buys back.
 *
 * HDSearch with 3 bucket replicas; a fault plan kills replica 0 a
 * quarter into the measured window and restarts it at three
 * quarters. Four policies race the same outage:
 *
 *   none     wait for the primary, recover only via crash-triggered
 *            re-issue (connection-reset failover);
 *   fixed    hedge a shard 400us after the scatter;
 *   adaptive hedge at the *observed* streaming p95 of shard replies
 *            (tracks load and the fault itself);
 *   tied     send two copies up front, cancel the loser before it
 *            runs.
 *
 * Reported per policy: healthy vs faulted p99, the degradation
 * ratio, failovers/lost counts, and the worst completed request of
 * the faulted runs (how long the outage lingered before recovery —
 * the recovery-time proxy). A final check re-runs the faulted grid
 * serially and verifies it is bit-identical to the parallel run:
 * the golden-determinism guarantee extended to faulty runs.
 * BENCH_failover.json tracks the headline numbers per commit.
 *
 * The driver exits 1 if the grids diverge, and, at default scale,
 * unless none degrades p99 more than every hedged policy (prints
 * `claim ok/FAIL`; `n/a` below default scale).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fault/fault.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

namespace {

struct Policy
{
    const char *name;
    svc::TopologyShape shape;
};

double
aggregate(const RepeatedResult &r,
          std::uint64_t svc::ServiceStats::*field)
{
    double total = 0;
    for (const auto &run : r.runs)
        total += static_cast<double>(run.service.*field);
    return total / static_cast<double>(r.runs.size());
}

double
worstCompletedMs(const RepeatedResult &r)
{
    double worst = 0;
    for (const auto &run : r.runs)
        worst = std::max(worst, run.latency.max);
    return worst / 1000.0;
}

} // namespace

int
main()
{
    const BenchOptions opt = BenchOptions::fromEnv();
    const double qps = 2000;
    const Time killAt = opt.warmup + opt.duration / 4;
    const Time killFor = opt.duration / 2;
    // Silent failure: the health-check detector needs an eighth of
    // the window to notice. Hedged/tied policies mask that interval
    // without any detector — the tail-at-scale argument, measured.
    const Time detect = opt.duration / 8;
    std::printf("Failover: HDSearch s4r3 @ %.0f QPS, kill bucket "
                "replica 0 at %s for %s (detected after %s)\n",
                qps, formatTime(killAt).c_str(),
                formatTime(killFor).c_str(), formatTime(detect).c_str());
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    const std::vector<Policy> policies = {
        {"none", {4, 3, 0, svc::HedgePolicy::None}},
        {"fixed", {4, 3, usec(400), svc::HedgePolicy::Fixed}},
        {"adaptive", {4, 3, usec(400), svc::HedgePolicy::Adaptive}},
        {"tied", {4, 3, 0, svc::HedgePolicy::Tied}},
    };
    const std::vector<fault::FaultPlan> plans = {
        fault::FaultPlan::none(),
        fault::FaultPlan::replicaKill("hds-bucket", 0, killAt, killFor,
                                      detect),
    };
    std::vector<std::string> policyNames;
    for (const Policy &p : policies)
        policyNames.push_back(p.name);

    auto factory = [&](const std::string &label,
                       const fault::FaultPlan &) {
        auto cfg = withTiming(ExperimentConfig::forHdSearch(qps), opt);
        cfg = configFor("HP-SMToff", cfg);
        // Heavy-tailed scans: the regime where hedging matters.
        cfg.hdsearch.bucketSd = cfg.hdsearch.bucketMean;
        for (const Policy &p : policies) {
            if (label == p.name)
                applyTopology(cfg, p.shape);
        }
        cfg.label = label;
        return cfg;
    };

    const auto grid =
        sweep<FaultPlanAxis>(policyNames, plans, factory, opt.runner(),
                             progress);
    const std::string faultTag = plans[1].label();

    TableReporter table("p99 under a mid-run replica kill, by policy");
    table.header({"policy", "healthy_p99_ms", "faulted_p99_ms", "ratio",
                  "failover/run", "lost/run", "worst_ms"});
    std::vector<BenchMetric> metrics;
    double nonePenalty = 0, fixedPenalty = 0, adaptivePenalty = 0,
           tiedPenalty = 0;
    for (const Policy &p : policies) {
        const auto &healthy =
            grid.at(std::string(p.name) + "/none", qps).result;
        const auto &faulted =
            grid.at(std::string(p.name) + "/" + faultTag, qps).result;
        const double ratio =
            faulted.medianP99() / healthy.medianP99();
        table.row(p.name,
                  {healthy.medianP99() / 1000.0,
                   faulted.medianP99() / 1000.0, ratio,
                   aggregate(faulted,
                             &svc::ServiceStats::requestsFailedOver),
                   aggregate(faulted, &svc::ServiceStats::requestsLost),
                   worstCompletedMs(faulted)});
        metrics.push_back({std::string(p.name) + "_faulted_p99_us",
                           faulted.medianP99(), "us"});
        metrics.push_back({std::string(p.name) + "_p99_degradation",
                           ratio, "ratio"});
        if (std::string(p.name) == "none")
            nonePenalty = ratio;
        if (std::string(p.name) == "fixed")
            fixedPenalty = ratio;
        if (std::string(p.name) == "adaptive")
            adaptivePenalty = ratio;
        if (std::string(p.name) == "tied")
            tiedPenalty = ratio;
    }
    table.print();
    std::printf("\np99 degradation (faulted/healthy): none %.2fx, "
                "adaptive %.2fx, tied %.2fx — hedging policies "
                "recover what the no-hedge baseline loses\n",
                nonePenalty, adaptivePenalty, tiedPenalty);

    // The claim: without a hedge the outage reaches the tail, so no
    // policy degrades p99 more than none. Medians of p99 need the
    // default run count and window; below them it prints n/a.
    const bool noneWorst = nonePenalty > fixedPenalty &&
                           nonePenalty > adaptivePenalty &&
                           nonePenalty > tiedPenalty;
    const bool asserted = opt.atDefaultScale();
    std::printf("claim %s: none degrades p99 more than fixed, adaptive "
                "and tied (%s)\n",
                !asserted ? "n/a" : noneWorst ? "ok" : "FAIL",
                noneWorst ? "yes" : "no");
    metrics.push_back(
        {"none_degrades_most", noneWorst ? 1.0 : 0.0, "bool"});

    // Determinism: the faulted grid, re-run serially, must match the
    // (default-width) run above bit for bit.
    RunnerOptions serial = opt.runner();
    serial.parallelism = 1;
    const auto check =
        sweep<FaultPlanAxis>(policyNames, plans, factory, serial);
    bool identical = grid.cells.size() == check.cells.size();
    for (std::size_t i = 0; identical && i < grid.cells.size(); ++i) {
        identical =
            grid.cells[i].result.avgPerRun ==
                check.cells[i].result.avgPerRun &&
            grid.cells[i].result.p99PerRun ==
                check.cells[i].result.p99PerRun;
    }
    std::printf("faulty grid serial-vs-parallel bit-identical: %s\n",
                identical ? "PASS" : "FAIL");
    metrics.push_back(
        {"serial_parallel_identical", identical ? 1.0 : 0.0, "bool"});
    writeBenchJson("failover", metrics, &opt);
    return identical && (noneWorst || !asserted) ? 0 : 1;
}
