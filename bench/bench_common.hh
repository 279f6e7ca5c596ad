/**
 * @file
 * Shared plumbing for the bench binaries: run-count / duration
 * scaling via environment variables, config construction for the
 * paper's client/server pairs, rep prefixes of a shared grid, and
 * progress output.
 *
 * The paper runs each configuration for 2 minutes x 50 repetitions
 * on real hardware; simulated runs default to shorter windows so the
 * full harness finishes in minutes. Set TPV_DURATION_S=120 and
 * TPV_RUNS=50 to reproduce the paper-scale statistics.
 */

#ifndef TPV_BENCH_COMMON_HH
#define TPV_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "core/runner.hh"
#include "core/study.hh"

namespace tpv {
namespace bench {

/** Bench-wide scaling knobs, resolved from the environment. */
struct BenchOptions
{
    /** Repetitions per configuration (TPV_RUNS, default 20). */
    int runs = 20;
    /** Measured window per run (TPV_DURATION_S, default 0.2s). */
    Time duration = msec(200);
    /** Warmup before the window (scaled with duration). */
    Time warmup = msec(20);
    /** Worker threads for parallel runs (TPV_PARALLEL). */
    int parallelism = 0;

    /** Read TPV_RUNS (integer >= 2) / TPV_DURATION_S (seconds > 0) /
     *  TPV_PARALLEL (integer >= 0, 0 = all cores); fatal() on a value
     *  that does not parse whole or is out of range. */
    static BenchOptions fromEnv();

    /** RunnerOptions with these settings. */
    core::RunnerOptions runner() const;

    /**
     * At least the default run count and window: the scale at which a
     * claim that needs default-scale statistics is asserted. Below it
     * (CI's smoke scale) such a claim prints n/a.
     */
    bool atDefaultScale() const;
};

/** Apply bench timing to an experiment config. */
core::ExperimentConfig withTiming(core::ExperimentConfig cfg,
                                  const BenchOptions &opt);

/** The paper's four client x server labels for the SMT study. */
std::vector<std::string> smtStudyConfigs();

/**
 * Materialise a config from a "LP-SMToff"-style label: prefix picks
 * the client (LP/HP), suffix the server (SMToff: the baseline server,
 * SMTon, C1Eon). The paper's C1E-off server is the baseline too, so
 * the C1E study reads its "C1Eoff" cells from the SMToff ones.
 */
core::ExperimentConfig configFor(const std::string &label,
                                 core::ExperimentConfig base);

/**
 * The first @p n (1 <= n <= r.runs.size()) repetitions of @p r. Rep
 * i's seed is deriveRunSeed(baseSeed, i) whatever the run count, so
 * this is exactly what an n-run study of the same cell returns.
 */
core::RepeatedResult firstRuns(const core::RepeatedResult &r, int n);

/** Figure 2/3's request-rate axis: 10K..500K QPS. */
std::vector<double> memcachedLoads();

/** Print a one-line progress marker to stderr. */
void progress(const core::StudyCell &cell);

/** One metric of a machine-readable bench report. */
struct BenchMetric
{
    std::string name;
    double value = 0;
    /** Unit tag, e.g. "events/s", "allocs/event". */
    std::string unit;
};

/**
 * Write a machine-readable JSON report ("BENCH_<bench>.json") so perf
 * trajectories can be tracked across commits and uploaded as CI
 * artifacts. The output path is taken from the TPV_BENCH_JSON
 * environment variable when set, else "BENCH_<bench>.json" in the
 * working directory.
 * @param runConfig the run count and window the numbers came from,
 *        recorded in the meta block; benches with their own fixed
 *        loops pass none.
 * @return the path written.
 */
std::string writeBenchJson(const std::string &bench,
                           const std::vector<BenchMetric> &metrics,
                           const BenchOptions *runConfig = nullptr);

} // namespace bench
} // namespace tpv

#endif // TPV_BENCH_COMMON_HH
