#include "core/runner.hh"

#include <atomic>
#include <mutex>
#include <utility>

#include "core/scheduler.hh"
#include "sim/logging.hh"
#include "stats/descriptive.hh"

namespace tpv {
namespace core {

double
RepeatedResult::medianAvg() const
{
    return stats::median(avgPerRun);
}

double
RepeatedResult::medianP99() const
{
    return stats::median(p99PerRun);
}

double
RepeatedResult::meanAvg() const
{
    return stats::mean(avgPerRun);
}

double
RepeatedResult::meanP99() const
{
    return stats::mean(p99PerRun);
}

double
RepeatedResult::stdevAvg() const
{
    return stats::stdev(avgPerRun);
}

stats::ConfInterval
RepeatedResult::avgCI(double level) const
{
    return stats::nonparametricMedianCI(avgPerRun, level);
}

stats::ConfInterval
RepeatedResult::p99CI(double level) const
{
    return stats::nonparametricMedianCI(p99PerRun, level);
}

RepeatedResult
runMany(const ExperimentConfig &cfg, const RunnerOptions &opt)
{
    return std::move(runManyBatch({cfg}, opt).front());
}

std::vector<RepeatedResult>
runManyBatch(const std::vector<ExperimentConfig> &cfgs,
             const RunnerOptions &opt, const BatchProgress &progress)
{
    if (opt.runs < 1)
        fatal("RunnerOptions::runs must be >= 1, got ", opt.runs);
    const std::size_t runs = static_cast<std::size_t>(opt.runs);

    std::vector<RepeatedResult> results(cfgs.size());
    for (RepeatedResult &r : results)
        r.runs.resize(runs);

    // Remaining repetitions per entry; the worker that completes an
    // entry's last repetition aggregates it and reports progress.
    std::vector<std::atomic<std::size_t>> pending(cfgs.size());
    for (auto &p : pending)
        p.store(runs, std::memory_order_relaxed);
    std::mutex progressMutex;

    Scheduler sched(opt.parallelism);
    sched.forEach(cfgs.size() * runs, [&](std::size_t task) {
        const std::size_t entry = task / runs;
        const std::size_t rep = task % runs;
        ExperimentConfig runCfg = cfgs[entry];
        runCfg.seed = deriveRunSeed(opt.baseSeed, static_cast<int>(rep));
        RepeatedResult &out = results[entry];
        out.runs[rep] = runOnce(runCfg);
        if (pending[entry].fetch_sub(1, std::memory_order_acq_rel) == 1) {
            out.avgPerRun.reserve(runs);
            out.p99PerRun.reserve(runs);
            for (const RunResult &r : out.runs) {
                out.avgPerRun.push_back(r.avgUs());
                out.p99PerRun.push_back(r.p99Us());
            }
            if (progress) {
                std::lock_guard<std::mutex> lock(progressMutex);
                progress(entry, out);
            }
        }
    });
    return results;
}

} // namespace core
} // namespace tpv
