/**
 * @file
 * Work-stealing task pool for study execution, backed by a persistent
 * process-wide worker pool.
 *
 * The paper's methodology multiplies work three ways — configurations
 * x load points x 50 iid repetitions — and every task is an
 * independent simulation. Instead of fanning out per cell (which
 * serialises across cells and leaves workers idle at each cell's
 * tail), the scheduler executes one flat bag of (config, qps,
 * repetition) tasks: each worker owns a queue, drains it FIFO, and
 * when empty steals from the first non-empty peer in a round-robin
 * scan. Results are written to
 * pre-sized slots keyed by task index, so the outcome is bit-identical
 * at any parallelism level.
 *
 * Worker threads are spawned once per process and park on a condition
 * variable between batches. Constructing a Scheduler is free: it only
 * records the requested width; the threads belong to the shared
 * Executor.
 */

#ifndef TPV_CORE_SCHEDULER_HH
#define TPV_CORE_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace tpv {
namespace core {

/**
 * Seed for repetition @p rep of a study with base seed @p baseSeed.
 * Widely spaced (golden-ratio stride); SplitMix scrambling in Rng
 * makes adjacent seeds independent anyway. Every execution path —
 * per-cell runMany() and full-grid sweep() — derives seeds through
 * this single function, so results depend only on (baseSeed, rep),
 * never on which worker ran the task or how wide the pool was.
 */
inline std::uint64_t
deriveRunSeed(std::uint64_t baseSeed, int rep)
{
    return baseSeed +
           0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rep + 1);
}

/**
 * The process-wide pool behind every Scheduler. Helper threads are
 * spawned lazily up to the widest batch ever requested, park on a
 * condition variable between batches, and are joined at process exit.
 * The pool persists for memory, not speed: spawning threads per
 * batch measures about as fast (≈1.0x), but raised perfbench's
 * peak_rss_mb by 5-9% (see BUILDING.md, "Executor lifetime").
 * Batches from different caller threads are serialised: one batch owns
 * the pool at a time (simulation batches are long; queueing them is
 * the intended behaviour, not a bottleneck).
 */
class Executor
{
  public:
    /** The shared process-wide instance. */
    static Executor &instance();

    /**
     * Run body(i) for every i in [0, n) across min(width, n) workers.
     * The calling thread participates as worker 0; width 1 (or n == 1)
     * runs inline without waking any helper. Blocks until every task
     * finished (or one threw — the first exception is rethrown after
     * the batch quiesces).
     */
    void run(std::size_t n, int width,
             const std::function<void(std::size_t)> &body);

    /**
     * Helper threads spawned so far, process-wide (grows to the widest
     * batch requested, then stays flat — the churn-free guarantee the
     * reuse tests assert).
     */
    std::size_t threadsSpawned() const;

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

  private:
    Executor();
    ~Executor();

    struct Impl;
    Impl *impl_;
};

/**
 * A bag-of-tasks executor with per-worker queues and work stealing.
 *
 * Usage: construct with the desired width, then forEach(n, body)
 * executes body(0..n-1) across the shared pool and blocks until every
 * task finished. The calling thread participates as worker 0, so
 * parallelism 1 runs inline with no helper woken at all.
 *
 * Exceptions: the first exception thrown by any task is captured,
 * remaining queued tasks are abandoned, and the exception is rethrown
 * to the caller of forEach() after the pool quiesces.
 */
class Scheduler
{
  public:
    /** @param parallelism worker count; 0 = hardware concurrency. */
    explicit Scheduler(int parallelism = 0);

    /** Resolved worker count (>= 1). */
    int workers() const { return workers_; }

    /**
     * Run body(i) for every i in [0, n), distributed over the pool.
     * Blocks until all tasks completed (or one threw). Reentrant
     * calls from inside a task are not supported.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &body) const;

  private:
    int workers_;
};

} // namespace core
} // namespace tpv

#endif // TPV_CORE_SCHEDULER_HH
