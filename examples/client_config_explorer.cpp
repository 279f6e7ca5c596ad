/**
 * @file
 * Client-configuration space exploration (Section VI): when the
 * target environment is unknown, evaluate a service under a grid of
 * client-side knob combinations and report how much each knob moves
 * the measurements. Goes beyond the paper's LP/HP pair by toggling
 * individual features.
 *
 *   $ ./build/examples/client_config_explorer [qps]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"

using namespace tpv;

namespace {

struct Variant
{
    std::string name;
    hw::HwConfig config;
};

std::vector<Variant>
variants()
{
    std::vector<Variant> out;
    out.push_back({"LP (default)", hw::HwConfig::clientLP()});

    auto v = hw::HwConfig::clientLP();
    v.cstates = {hw::CState::C0, hw::CState::C1};
    v.name = "LP, shallow C-states";
    out.push_back({"LP + only C0/C1", v});

    v = hw::HwConfig::clientLP();
    v.governor = hw::FreqGovernor::Performance;
    v.driver = hw::FreqDriver::AcpiCpufreq;
    v.name = "LP, performance gov";
    out.push_back({"LP + performance gov", v});

    v = hw::HwConfig::clientLP();
    v.uncoreDynamic = false;
    v.name = "LP, fixed uncore";
    out.push_back({"LP + fixed uncore", v});

    v = hw::HwConfig::clientLP();
    v.tickless = true;
    v.name = "LP, tickless";
    out.push_back({"LP + tickless", v});

    out.push_back({"HP (tuned)", hw::HwConfig::clientHP()});
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const double qps = argc > 1 ? std::atof(argv[1]) : 100e3;

    core::RunnerOptions opt;
    opt.runs = 8;

    std::printf("Client configuration space exploration — Memcached @ "
                "%.0fK QPS\n\n",
                qps / 1000);
    std::printf("%-26s %10s %10s %10s %12s\n", "client variant",
                "avg (us)", "p99 (us)", "stdev", "vs HP");

    // One flat bag of (variant, repetition) tasks on the scheduler.
    const auto vars = variants();
    std::vector<core::ExperimentConfig> cfgs;
    for (const Variant &variant : vars) {
        auto cfg = core::ExperimentConfig::forMemcached(qps);
        cfg.client = variant.config;
        cfg.gen.warmup = msec(30);
        cfg.gen.duration = msec(300);
        cfgs.push_back(std::move(cfg));
    }
    const auto results = core::runManyBatch(cfgs, opt);

    double hpAvg = 0;
    for (std::size_t i = 0; i < vars.size(); ++i) {
        if (vars[i].name == "HP (tuned)")
            hpAvg = results[i].medianAvg();
    }
    for (std::size_t i = 0; i < vars.size(); ++i) {
        const auto &r = results[i];
        std::printf("%-26s %10.2f %10.2f %10.3f %11.2fx\n",
                    vars[i].name.c_str(), r.medianAvg(), r.medianP99(),
                    r.stdevAvg(), r.medianAvg() / hpAvg);
    }

    std::printf("\nEach knob closes part of the LP-HP gap; the governor "
                "and C-states dominate\nfor microsecond-scale services "
                "(Section V-A's decomposition).\n");
    return 0;
}
