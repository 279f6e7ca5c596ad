/**
 * @file
 * Scheduler scaling check, two phases:
 *
 *  1. Run a Figure-2-sized study grid (4 configs x 6 loads x 20
 *     repetitions = 480 independent simulations) through the
 *     work-stealing scheduler at parallelism 1 and at hardware
 *     concurrency, verify the two grids are bit-identical, and report
 *     the wall-clock speedup. On a multi-core host the flat task bag
 *     should scale close to linearly; on a single core it degrades
 *     gracefully to ~1x.
 *
 *  2. Many-small-batches: Table IV-style sweeps issue dozens of tiny
 *     cells back to back. The persistent executor parks its workers
 *     between batches; a pool that respawns threads per call (the
 *     pre-persistent behaviour, reproduced here as a baseline) pays
 *     the spawn cost every batch. The two measure about the same
 *     (≈1.0x): the pool is kept because per-batch threads raise peak
 *     RSS by 5-9% in perfbench, which this phase does not measure.
 *     Both must stay bit-identical to serial execution.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/scheduler.hh"

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

/**
 * The pre-persistent baseline: fan one batch's repetitions out over
 * freshly spawned threads, joined before returning — thread spawn
 * cost on every call.
 */
RepeatedResult
runManySpawnPerCall(const ExperimentConfig &cfg, const RunnerOptions &opt,
                    int width)
{
    const std::size_t runs = static_cast<std::size_t>(opt.runs);
    RepeatedResult out;
    out.runs.resize(runs);
    width = std::min<int>(width, static_cast<int>(runs));
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (;;) {
            const std::size_t r = next.fetch_add(1);
            if (r >= runs)
                return;
            ExperimentConfig runCfg = cfg;
            runCfg.seed =
                deriveRunSeed(opt.baseSeed, static_cast<int>(r));
            out.runs[r] = runOnce(runCfg);
        }
    };
    std::vector<std::thread> pool;
    for (int w = 1; w < width; ++w)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();
    for (const RunResult &r : out.runs) {
        out.avgPerRun.push_back(r.avgUs());
        out.p99PerRun.push_back(r.p99Us());
    }
    return out;
}

/** Tiny Table-IV-style cell: a few milliseconds of simulated time. */
ExperimentConfig
tinyCell(int batch)
{
    auto cfg = ExperimentConfig::forMemcached(40e3 +
                                              1e3 * (batch % 8));
    cfg.gen.warmup = msec(1);
    cfg.gen.duration = msec(5);
    return cfg;
}

std::uint64_t
manySmallBatches(int wide)
{
    const int batches = 40;
    RunnerOptions opt;
    opt.runs = 6;
    opt.baseSeed = 77;

    using Clock = std::chrono::steady_clock;
    // Serial reference (persistent pool, width 1 runs inline).
    opt.parallelism = 1;
    std::vector<RepeatedResult> serial;
    for (int b = 0; b < batches; ++b)
        serial.push_back(runMany(tinyCell(b), opt));

    // Persistent pool at full width: helpers park between batches.
    opt.parallelism = wide;
    const auto t0 = Clock::now();
    std::vector<RepeatedResult> pooled;
    for (int b = 0; b < batches; ++b)
        pooled.push_back(runMany(tinyCell(b), opt));
    const auto t1 = Clock::now();

    // Spawn-per-call baseline at the same width.
    std::vector<RepeatedResult> spawned;
    for (int b = 0; b < batches; ++b)
        spawned.push_back(runManySpawnPerCall(tinyCell(b), opt, wide));
    const auto t2 = Clock::now();

    std::uint64_t mismatches = 0;
    for (int b = 0; b < batches; ++b) {
        for (std::size_t r = 0; r < serial[b].avgPerRun.size(); ++r) {
            if (pooled[b].avgPerRun[r] != serial[b].avgPerRun[r] ||
                pooled[b].p99PerRun[r] != serial[b].p99PerRun[r] ||
                spawned[b].avgPerRun[r] != serial[b].avgPerRun[r] ||
                spawned[b].p99PerRun[r] != serial[b].p99PerRun[r])
                ++mismatches;
        }
    }

    const double pooledS =
        std::chrono::duration<double>(t1 - t0).count();
    const double spawnedS =
        std::chrono::duration<double>(t2 - t1).count();
    std::printf("\nMany small batches: %d batches x %d runs, "
                "parallelism %d\n",
                batches, opt.runs, wide);
    std::printf("  persistent pool: %8.3f s\n", pooledS);
    std::printf("  spawn per call : %8.3f s\n", spawnedS);
    std::printf("  determinism    : %s\n",
                mismatches == 0 ? "bit-identical to serial"
                                : "MISMATCH — scheduler bug");
    std::printf("  pool advantage : %8.2fx\n", spawnedS / pooledS);
    return mismatches;
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

    mismatches += manySmallBatches(wide);
    return mismatches == 0 ? 0 : 1;
}
