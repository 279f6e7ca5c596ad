#include "core/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/logging.hh"

namespace tpv {
namespace core {

namespace {

/**
 * True while this thread is executing a task body. A nested forEach()
 * from inside a task runs inline-serial instead of touching the pool:
 * it cannot deadlock on the batch lock, and serial execution keeps the
 * nested results deterministic.
 */
thread_local bool insideTask = false;

/**
 * One wide forEach(): the shared claim counter and the first task
 * exception. Every participant claims next++ until the counter passes
 * n; a throwing task pushes the counter to n, so unclaimed tasks are
 * abandoned.
 */
struct Batch
{
    Batch(const std::function<void(std::size_t)> &b, std::size_t count)
        : body(b), n(count)
    {
    }

    const std::function<void(std::size_t)> &body;
    const std::size_t n;
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr error;

    /** Claim and run tasks until the bag is empty. */
    void
    work()
    {
        insideTask = true;
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
                next.store(n, std::memory_order_relaxed);
            }
        }
        insideTask = false;
    }
};

} // namespace

/**
 * The parked worker pool. Helpers sleep on wakeCv between batches and
 * are handed work by bumping epoch: each helper remembers the last
 * epoch it saw, so a wakeup is "there is a batch you have not looked
 * at yet". Helpers whose slot is beyond the batch's width note the
 * epoch and go straight back to sleep. The submitting thread always
 * works the batch too and then parks on doneCv until the last helper
 * checked out, which also publishes every task's writes to the caller
 * (the decrement of remaining happens under mutex).
 */
struct Scheduler::Pool
{
    /** Serialises whole batches: one forEach() owns the pool at a time. */
    std::mutex batchMutex;

    /** Guards everything below. */
    std::mutex mutex;
    std::condition_variable wakeCv;
    std::condition_variable doneCv;
    std::vector<std::thread> helpers;
    Batch *batch = nullptr;
    /** Helpers participating in the current batch (prefix of slots). */
    std::size_t helpersWanted = 0;
    /** Helpers that have not yet finished the current batch. */
    std::size_t remaining = 0;
    std::uint64_t epoch = 0;
    bool stop = false;

    static Pool &
    instance()
    {
        static Pool pool;
        return pool;
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stop = true;
        }
        wakeCv.notify_all();
        for (std::thread &t : helpers)
            t.join();
    }

    void
    workerLoop(std::size_t slot)
    {
        std::uint64_t seenEpoch = 0;
        for (;;) {
            Batch *mine = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex);
                wakeCv.wait(lock, [&] { return stop || epoch != seenEpoch; });
                if (stop)
                    return;
                seenEpoch = epoch;
                if (slot < helpersWanted)
                    mine = batch;
            }
            if (!mine)
                continue;
            mine->work();
            std::lock_guard<std::mutex> lock(mutex);
            if (--remaining == 0)
                doneCv.notify_all();
        }
    }

    /** Run @p n tasks on the caller plus @p wanted parked helpers,
     *  growing the pool to @p wanted helpers first (never shrinks). */
    void
    run(std::size_t n, std::size_t wanted,
        const std::function<void(std::size_t)> &body)
    {
        std::lock_guard<std::mutex> batchLock(batchMutex);
        Batch bag(body, n);
        {
            std::lock_guard<std::mutex> lock(mutex);
            while (helpers.size() < wanted) {
                const std::size_t slot = helpers.size();
                helpers.emplace_back([this, slot] { workerLoop(slot); });
            }
            batch = &bag;
            helpersWanted = wanted;
            remaining = wanted;
            ++epoch;
        }
        wakeCv.notify_all();
        bag.work();
        {
            std::unique_lock<std::mutex> lock(mutex);
            doneCv.wait(lock, [&] { return remaining == 0; });
            batch = nullptr;
        }
        if (bag.error)
            std::rethrow_exception(bag.error);
    }
};

Scheduler::Scheduler(int parallelism) : workers_(parallelism)
{
    if (workers_ <= 0)
        workers_ = static_cast<int>(std::thread::hardware_concurrency());
    if (workers_ < 1)
        workers_ = 1;
}

void
Scheduler::forEach(std::size_t n,
                   const std::function<void(std::size_t)> &body) const
{
    TPV_ASSERT(body != nullptr, "scheduler needs a task body");
    const std::size_t width =
        std::min(n, static_cast<std::size_t>(workers_));
    if (width <= 1 || insideTask) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    Pool::instance().run(n, width - 1, body);
}

std::size_t
Scheduler::threadsSpawned()
{
    Pool &pool = Pool::instance();
    std::lock_guard<std::mutex> lock(pool.mutex);
    return pool.helpers.size();
}

} // namespace core
} // namespace tpv
