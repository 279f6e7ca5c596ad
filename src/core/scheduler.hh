/**
 * @file
 * The study task pool: one persistent process-wide set of worker
 * threads that every Scheduler shares.
 *
 * The paper's methodology multiplies work three ways — configurations
 * x load points x 50 iid repetitions — and every task is an
 * independent simulation. Instead of fanning out per cell (which
 * serialises across cells and leaves workers idle at each cell's
 * tail), the scheduler executes one flat bag of (config, qps,
 * repetition) tasks: every worker claims the next unclaimed index
 * from one shared atomic counter. Tasks are whole simulation runs
 * (milliseconds to seconds), so one counter never contends. Results
 * are written to pre-sized slots keyed by task index, so the outcome
 * is bit-identical at any parallelism level.
 *
 * Worker threads are spawned once per process and park on a condition
 * variable between batches. Constructing a Scheduler is free: it only
 * records the requested width.
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
 * A bag-of-tasks runner over the process-wide worker pool.
 *
 * Usage: construct with the desired width, then forEach(n, body)
 * executes body(0..n-1) and blocks until every task finished. The
 * calling thread works the bag too, so width 1 runs inline in index
 * order with no helper woken at all.
 *
 * The pool's helper threads are spawned lazily up to the widest batch
 * ever requested, park between batches, and are joined at process
 * exit. The pool persists for memory, not speed: spawning threads per
 * batch measures about as fast (≈1.0x), but raised perfbench's
 * peak_rss_mb by 5-9% (see BUILDING.md, "Study pool lifetime").
 * Batches from different caller threads are serialised: one batch
 * owns the pool at a time (simulation batches are long; queueing them
 * is the intended behaviour, not a bottleneck).
 *
 * Exceptions: the first exception thrown by any task is captured,
 * unclaimed tasks are abandoned, and the exception is rethrown to the
 * caller of forEach() after the pool quiesces.
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
     * Blocks until all tasks completed (or one threw). A forEach()
     * from inside a task runs inline, in index order.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &body) const;

    /**
     * Helper threads spawned so far, process-wide (grows to the widest
     * batch requested, then stays flat — the churn-free guarantee the
     * reuse tests assert).
     */
    static std::size_t threadsSpawned();

  private:
    struct Pool;

    int workers_;
};

} // namespace core
} // namespace tpv

#endif // TPV_CORE_SCHEDULER_HH
