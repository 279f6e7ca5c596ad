/**
 * @file
 * Repetition runner: executes N independent runs of an experiment
 * (fresh simulated environment + distinct seed per run, satisfying
 * Section III's iid requirement) and aggregates per-run metrics.
 * Runs fan out across OS threads — simulations are independent.
 */

#ifndef TPV_CORE_RUNNER_HH
#define TPV_CORE_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/experiment.hh"
#include "stats/ci.hh"

namespace tpv {
namespace core {

/** Options for repeated execution. */
struct RunnerOptions
{
    /** Repetitions, >= 1 (fewer is fatal()); the paper uses 50 (20
     *  for the synthetic study). */
    int runs = 50;
    /** Base seed; run i uses a deterministic derivation of it. */
    std::uint64_t baseSeed = 42;
    /** Worker threads; 0 = hardware concurrency. */
    int parallelism = 0;
};

/** Per-run samples plus cross-run aggregation for one configuration. */
struct RepeatedResult
{
    std::vector<RunResult> runs;
    /** One sample per run: that run's average latency (us). */
    std::vector<double> avgPerRun;
    /** One sample per run: that run's p99 latency (us). */
    std::vector<double> p99PerRun;

    /** Median of per-run averages (what Figures 2-4 plot). */
    double medianAvg() const;
    /** Median of per-run p99s. */
    double medianP99() const;
    /** Mean of per-run averages (used for the slowdown ratios). */
    double meanAvg() const;
    /** Mean of per-run p99s. */
    double meanP99() const;
    /** Standard deviation of per-run averages (Figure 5). */
    double stdevAvg() const;
    /** Non-parametric 95% CI of the median per-run average. */
    stats::ConfInterval avgCI(double level = 0.95) const;
    /** Non-parametric 95% CI of the median per-run p99. */
    stats::ConfInterval p99CI(double level = 0.95) const;
};

/**
 * Run @p cfg opt.runs times with derived seeds.
 * Deterministic: the same (cfg, options) produces the same samples
 * regardless of parallelism.
 */
RepeatedResult runMany(const ExperimentConfig &cfg,
                       const RunnerOptions &opt = {});

/** Fired when the last repetition of batch entry @p index finishes
 *  (the result is fully aggregated at that point). Entries complete
 *  in arbitrary order under parallel execution; invocations are
 *  serialised, so the callback needs no locking of its own. */
using BatchProgress =
    std::function<void(std::size_t index, const RepeatedResult &result)>;

/**
 * Run every configuration in @p cfgs opt.runs times, as one flat bag
 * of (config, repetition) tasks on the work-stealing scheduler —
 * workers never idle at a configuration boundary while another still
 * has repetitions left. Repetition r of every entry uses
 * deriveRunSeed(opt.baseSeed, r), so results[i] is bit-identical to
 * runMany(cfgs[i], opt) at any parallelism level.
 */
std::vector<RepeatedResult>
runManyBatch(const std::vector<ExperimentConfig> &cfgs,
             const RunnerOptions &opt, const BatchProgress &progress = {});

} // namespace core
} // namespace tpv

#endif // TPV_CORE_RUNNER_HH
