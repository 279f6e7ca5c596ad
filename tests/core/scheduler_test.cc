/** @file Tests for the shared-counter study task pool. */

#include "core/scheduler.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/runner.hh"

namespace tpv {
namespace core {
namespace {

ExperimentConfig
quickConfig()
{
    auto cfg = ExperimentConfig::forMemcached(50e3);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(30);
    return cfg;
}

TEST(Scheduler, ResolvesWorkerCount)
{
    EXPECT_GE(Scheduler(0).workers(), 1);
    EXPECT_EQ(Scheduler(1).workers(), 1);
    EXPECT_EQ(Scheduler(5).workers(), 5);
    EXPECT_GE(Scheduler(-3).workers(), 1);
}

TEST(Scheduler, RunsEveryTaskExactlyOnce)
{
    for (int width : {1, 2, 7}) {
        const std::size_t n = 100;
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        Scheduler(width).forEach(n, [&](std::size_t i) { hits[i]++; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "task " << i << " width "
                                         << width;
    }
}

TEST(Scheduler, EmptyBagIsANoop)
{
    int calls = 0;
    Scheduler(4).forEach(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(Scheduler, SerialPreservesSubmissionOrder)
{
    std::vector<std::size_t> order;
    Scheduler(1).forEach(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, PropagatesFirstTaskException)
{
    Scheduler sched(4);
    EXPECT_THROW(
        sched.forEach(64,
                      [](std::size_t i) {
                          if (i == 13)
                              throw std::runtime_error("task 13 failed");
                      }),
        std::runtime_error);
}

TEST(Scheduler, ExceptionAbandonsRemainingWork)
{
    // Serial pool, index order: task 0 throws, so no later task runs.
    std::atomic<int> ran{0};
    Scheduler sched(1);
    EXPECT_THROW(sched.forEach(50,
                               [&](std::size_t i) {
                                   if (i == 0)
                                       throw std::runtime_error("boom");
                                   ++ran;
                               }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 0);
}

TEST(Scheduler, StressManyMoreTasksThanThreads)
{
    // Uneven task sizes make workers race for the shared counter at
    // different rates; every index must still be claimed exactly once
    // with no duplicates or drops.
    const std::size_t n = 10000;
    std::mutex mutex;
    std::set<std::size_t> seen;
    std::atomic<std::uint64_t> sink{0};
    Scheduler(8).forEach(n, [&](std::size_t i) {
        std::uint64_t acc = 0;
        for (std::size_t k = 0; k < (i % 97) * 50; ++k)
            acc += k * i;
        sink += acc;
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_TRUE(seen.insert(i).second) << "duplicate task " << i;
    });
    EXPECT_EQ(seen.size(), n);
}

TEST(Scheduler, PersistentPoolAvoidsThreadChurn)
{
    // Helpers are spawned once, process-wide, and parked between
    // batches: repeated forEach() calls — the many-small-batches
    // pattern of Table IV iteration sweeps — must not spawn threads.
    Scheduler sched(4);
    std::atomic<int> count{0};
    sched.forEach(16, [&](std::size_t) { ++count; });
    const std::size_t spawned = Scheduler::threadsSpawned();
    EXPECT_GE(spawned, 3u); // at least this batch's helpers exist
    for (int i = 0; i < 200; ++i)
        sched.forEach(8, [&](std::size_t) { ++count; });
    EXPECT_EQ(Scheduler::threadsSpawned(), spawned);
    EXPECT_EQ(count.load(), 16 + 200 * 8);
}

TEST(Scheduler, PoolGrowsToWidestRequestThenStaysFlat)
{
    Scheduler narrow(2), wide(6);
    narrow.forEach(4, [](std::size_t) {});
    wide.forEach(12, [](std::size_t) {});
    const std::size_t spawned = Scheduler::threadsSpawned();
    EXPECT_GE(spawned, 5u);
    // Narrower batches reuse the existing helpers.
    narrow.forEach(4, [](std::size_t) {});
    wide.forEach(12, [](std::size_t) {});
    EXPECT_EQ(Scheduler::threadsSpawned(), spawned);
}

TEST(Scheduler, NestedForEachRunsInlineWithoutDeadlock)
{
    // A task that itself calls forEach() must not touch the pool (the
    // batch lock is held); nested bags run inline-serial instead.
    std::atomic<int> inner{0};
    Scheduler sched(4);
    sched.forEach(8, [&](std::size_t) {
        Scheduler(4).forEach(5, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 8 * 5);
}

TEST(Scheduler, ConcurrentCallersSerialiseBatches)
{
    // Two threads submitting batches at once: batches own the pool one
    // at a time and every task of both still runs exactly once.
    std::atomic<int> count{0};
    auto submit = [&] {
        Scheduler sched(4);
        for (int i = 0; i < 20; ++i)
            sched.forEach(50, [&](std::size_t) { ++count; });
    };
    std::thread a(submit), b(submit);
    a.join();
    b.join();
    EXPECT_EQ(count.load(), 2 * 20 * 50);
}

TEST(Scheduler, SeedDerivationIsStrided)
{
    EXPECT_EQ(deriveRunSeed(42, 0), 42 + 0x9e3779b97f4a7c15ULL);
    EXPECT_NE(deriveRunSeed(42, 0), deriveRunSeed(42, 1));
    EXPECT_NE(deriveRunSeed(42, 0), deriveRunSeed(43, 0));
    // Consecutive repetitions are a fixed stride apart regardless of
    // base seed: parallel execution cannot perturb the mapping.
    EXPECT_EQ(deriveRunSeed(7, 3) - deriveRunSeed(7, 2),
              deriveRunSeed(99, 1) - deriveRunSeed(99, 0));
}

TEST(SchedulerDeterminism, BitIdenticalAcrossParallelism)
{
    RunnerOptions serial;
    serial.runs = 6;
    serial.baseSeed = 1234;
    serial.parallelism = 1;
    const auto reference = runMany(quickConfig(), serial);

    for (int width : {2, 3, 8}) {
        RunnerOptions opt = serial;
        opt.parallelism = width;
        const auto r = runMany(quickConfig(), opt);
        ASSERT_EQ(r.runs.size(), reference.runs.size());
        for (std::size_t i = 0; i < r.runs.size(); ++i) {
            // Bit-identical, not just close: same seed, same sim.
            EXPECT_EQ(r.avgPerRun[i], reference.avgPerRun[i])
                << "run " << i << " width " << width;
            EXPECT_EQ(r.p99PerRun[i], reference.p99PerRun[i])
                << "run " << i << " width " << width;
            EXPECT_EQ(r.runs[i].sent, reference.runs[i].sent);
            EXPECT_EQ(r.runs[i].received, reference.runs[i].received);
            EXPECT_EQ(r.runs[i].events, reference.runs[i].events);
        }
    }
}

} // namespace
} // namespace core
} // namespace tpv
