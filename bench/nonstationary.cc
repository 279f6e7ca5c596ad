/**
 * @file
 * Non-stationary load study: the Table III risk taxonomy under
 * time-varying offered load.
 *
 * The paper evaluates every scenario at fixed QPS points; production
 * traffic is anything but fixed. This driver sweeps the memcached
 * setup with LP and HP clients across the four load shapes — constant
 * baseline, diurnal sinusoid, step flash crowd, MMPP bursts — at the
 * same base rate, and reports per-shape median avg/p99 latency plus
 * the LP/HP slowdown ratio. If the client configuration changes the
 * *conclusion* (how big the LP penalty looks) depending on the shape
 * of the load, stationary load points alone were not enough to
 * characterise the measurement risk.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/scenario.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

int
main()
{
    const BenchOptions opt = BenchOptions::fromEnv();
    const double baseQps = 100e3;

    // Profile time constants scale with the measured window so the
    // swing/crowd/burst structure survives TPV_DURATION_S scaling.
    const Time d = opt.duration;
    const std::vector<loadgen::LoadProfileParams> profiles = {
        loadgen::LoadProfileParams::constant(),
        loadgen::LoadProfileParams::diurnal(0.6, d / 2),
        loadgen::LoadProfileParams::flashCrowd(2.5, opt.warmup + d / 4,
                                               opt.warmup + (3 * d) / 4),
        loadgen::LoadProfileParams::mmpp(3.0, d / 10, d / 40),
    };

    const auto factory = [&](const std::string &label,
                             const loadgen::LoadProfileParams &) {
        auto cfg = withTiming(ExperimentConfig::forMemcached(baseQps),
                              opt);
        cfg = configFor(label + "-SMToff", cfg);
        cfg.label = label;
        return cfg;
    };

    std::printf("Non-stationary memcached study: base %.0fk QPS, "
                "%d runs x %.2fs window\n",
                baseQps / 1e3, opt.runs, toSec(opt.duration));

    const auto grid = sweep<ProfileAxis>({"LP", "HP"}, profiles, factory,
                                         opt.runner(), progress);

    TableReporter avgTable("Median per-run avg latency (us) by load shape");
    TableReporter p99Table("Median per-run p99 latency (us) by load shape");
    TableReporter ratioTable("LP/HP slowdown by load shape");
    avgTable.header({"shape", "LP", "HP"});
    p99Table.header({"shape", "LP", "HP"});
    ratioTable.header({"shape", "avg", "p99"});

    for (const auto &profile : profiles) {
        const std::string shape = toString(profile.kind);
        const auto &lp = grid.at("LP/" + shape, baseQps).result;
        const auto &hp = grid.at("HP/" + shape, baseQps).result;
        avgTable.row(shape, {lp.medianAvg(), hp.medianAvg()});
        p99Table.row(shape, {lp.medianP99(), hp.medianP99()});
        ratioTable.row(shape,
                       {slowdownAvg(lp, hp), slowdownP99(lp, hp)});
    }
    avgTable.print();
    p99Table.print();
    ratioTable.print();

    // The taxonomy rows this study exercises.
    std::printf("\nNon-stationary scenario rows (Table III x shapes):\n");
    for (const auto &s : nonstationaryScenarios()) {
        if (s.interarrival == loadgen::SendMode::BlockWait &&
            !s.bigResponseTime) {
            std::printf("  %s%s\n", s.label().c_str(),
                        risky(s) ? "  [RISKY]" : "");
        }
    }
    return 0;
}
