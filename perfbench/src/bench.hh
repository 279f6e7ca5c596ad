/**
 * @file
 * Shared declarations of the repository benchmark: workload grids,
 * per-run fingerprints, the benchmark's own span log, and the layer
 * ladder that prices each simulator layer from outside.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** CPU seconds (user + system, all threads) this process used so far. */
double processCpuSeconds();

/** CPU seconds the calling thread used so far. */
double threadCpuSeconds();

/** One cell of a workload grid: a fully built experiment config. */
struct Cell
{
    /** Stable name, also the key of the reference fingerprints. */
    std::string label;
    tpv::core::ExperimentConfig cfg;
    /** LP client (else HP). */
    bool lp = false;
    /** No fault plan: root conservation (sent == received) must hold. */
    bool healthy = true;
    /** Claim grouping: the load (paper_memcached), the hedge policy
     *  (fanout_hdsearch) or the cache shape (keyed_cache). */
    std::string group;
};

/** A workload: the cell grid one timed pass runs, and how often. */
struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    /** Repetitions of every cell in one timed pass. */
    int repsPerPass = 1;
    /** The cell whose shape the layer ladder rebuilds by hand. */
    std::size_t ladderCell = 0;
};

/**
 * Materialise workload @p name. @p scale shrinks every simulated
 * window (1 = the benchmark's shape, 0.1 = the self-test's tiny runs).
 * @return false for an unknown name.
 */
bool makeWorkload(const std::string &name, double scale, Workload *out);

/** One finished runOnce of a cell. */
struct RunRecord
{
    std::size_t cell = 0;
    std::uint64_t seed = 0;
    /** Host wall ms and the worker thread's CPU ms of the runOnce. */
    double hostMs = 0;
    double cpuMs = 0;
    bool threw = false;
    tpv::core::RunResult result;
};

/** Outcome of one qualitative claim. */
struct Claim
{
    bool ok = false;
    std::string text;
};

/** The workload's paper-shape claims, evaluated over @p runs. */
std::vector<Claim> checkClaims(const Workload &wl,
                               const std::vector<RunRecord> &runs);

/**
 * 64-bit fingerprint of a run's simulated outputs: latency and
 * lateness summaries as hexfloats, sent/received, events, both
 * machines' MachineStats and the full ServiceStats.
 */
std::uint64_t fingerprint(const tpv::core::RunResult &r);

/** Fold @p v into the running digest @p h (FNV-1a over its bytes). */
std::uint64_t mixDigest(std::uint64_t h, std::uint64_t v);

/** Digest start value. */
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/**
 * The benchmark's own spans, kept in memory and written as Chrome
 * trace JSON at exit. Thread-safe; a span costs one locked append, so
 * per-run spans cost nothing next to a millisecond simulation.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

    /** Record [start, end) under @p name / @p cat on host thread
     *  @p tid, with numeric @p args ("key": value pairs). */
    void add(const std::string &name, const char *cat, int tid,
             Clock::time_point start, Clock::time_point end,
             const std::vector<std::pair<std::string, double>> &args = {});

    /** Write every span as {"traceEvents": [...]} to @p path.
     *  @return false when the file cannot be written. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        const char *cat;
        int tid;
        double startUs;
        double durUs;
        std::vector<std::pair<std::string, double>> args;
    };

    bool enabled_;
    Clock::time_point t0_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * Host-speed probe: @p threads host threads each run a fixed mix of
 * binary-heap and hash-table operations (no repository code, so no
 * change to the simulator moves it). @return the process CPU seconds
 * the probe took.
 */
double hostProbeCpuSeconds(int threads);

/** Small dense id of the calling host thread (0 = first caller). */
int hostThreadId();

/** Host cost of one ladder rung. */
struct Rung
{
    std::string name;
    /** Median host seconds of one repetition. */
    double hostSeconds = 0;
    std::uint64_t events = 0;
    std::uint64_t requests = 0;
    /** Messages carried by net::Link (0 below the net rung). */
    std::uint64_t messages = 0;
    /** Mean pending events, sampled every 1000 events. */
    double meanDepth = 0;

    double
    nsPerRequest() const
    {
        return requests > 0 ? hostSeconds * 1e9 / requests : 0;
    }
};

/**
 * The layer ladder on @p cfg's shape: queue only, +hw, +net, +loadgen,
 * then the full core::runOnce. Each rung is one simulated run of the
 * same arrival process and horizon built from public constructors;
 * every rung repeats @p reps times (rungs interleaved) and keeps its
 * median host time.
 */
std::vector<Rung> runLadder(const tpv::core::ExperimentConfig &cfg,
                            int reps, SpanLog &spans);

/**
 * Host ns per MenuGovernor::choose + recordIdle pair over a seeded
 * idle trace shaped like @p cfg's client threads (timer hints at the
 * per-thread send gap, actual idles cut short by replies).
 */
double governorNsPerChoose(const tpv::core::ExperimentConfig &cfg,
                           std::uint64_t seed, long pairs);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
