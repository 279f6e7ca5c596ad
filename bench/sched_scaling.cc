/**
 * @file
 * Scheduler scaling check: run a Figure-2-sized study grid (4 configs
 * x 6 loads x 20 repetitions = 480 independent simulations) through
 * the shared scheduler pool at parallelism 1 and at hardware
 * concurrency, verify the two grids are bit-identical, and report the
 * wall-clock speedup. On a multi-core host the flat task bag should
 * scale close to linearly; on a single core it degrades gracefully to
 * ~1x. Exits 1 on any mismatch.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_common.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

namespace {

double
sweepSeconds(const BenchOptions &opt, int parallelism, StudyGrid &out)
{
    RunnerOptions ropt = opt.runner();
    ropt.parallelism = parallelism;
    const auto factory = [&](const std::string &label, double qps) {
        return configFor(label,
                         withTiming(ExperimentConfig::forMemcached(qps),
                                    opt));
    };
    const auto t0 = std::chrono::steady_clock::now();
    out = sweep(smtStudyConfigs(),
                {10e3, 50e3, 100e3, 200e3, 300e3, 400e3}, factory, ropt);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    BenchOptions opt = BenchOptions::fromEnv();
    // Figure 2 scale: 20 runs unless the environment asks otherwise.
    if (!std::getenv("TPV_RUNS"))
        opt.runs = 20;

    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    // Wide leg: TPV_PARALLEL when set, else hardware concurrency.
    const int wide = opt.parallelism > 0 ? opt.parallelism : hw;
    std::printf("Scheduler scaling: 4 configs x 6 loads x %d runs "
                "(%d tasks), %d hardware threads\n",
                opt.runs, 4 * 6 * opt.runs, hw);

    StudyGrid serial, parallel;
    const double serialS = sweepSeconds(opt, 1, serial);
    std::printf("  parallelism=1 : %8.2f s\n", serialS);
    const double parallelS = sweepSeconds(opt, wide, parallel);
    std::printf("  parallelism=%-2d: %8.2f s\n", wide, parallelS);

    // Bit-identical across parallelism levels, per-repetition.
    std::uint64_t mismatches = 0;
    for (std::size_t c = 0; c < serial.cells.size(); ++c) {
        const auto &a = serial.cells[c].result;
        const auto &b = parallel.cells[c].result;
        for (std::size_t r = 0; r < a.avgPerRun.size(); ++r) {
            if (a.avgPerRun[r] != b.avgPerRun[r] ||
                a.p99PerRun[r] != b.p99PerRun[r])
                ++mismatches;
        }
    }
    std::printf("  determinism   : %s\n",
                mismatches == 0 ? "bit-identical grids"
                                : "MISMATCH — scheduler bug");
    std::printf("  speedup       : %8.2fx\n", serialS / parallelS);
    return mismatches == 0 ? 0 : 1;
}
