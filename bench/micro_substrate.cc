/**
 * @file
 * google-benchmark microbenchmarks of the substrates: event queue
 * throughput, the client-hardware hot path (turbo-bin moves, thread
 * submit/complete), RNG draws, statistics kernels, and a full
 * simulated-second of the memcached experiment. These guard the
 * simulator's wall-clock cost, which caps how much of the paper's
 * 2-minute x 50-run protocol is affordable.
 */

#include <benchmark/benchmark.h>

#include <vector>

// Allocation counter for the event-queue benchmarks: the hot path
// promises zero steady-state allocations, and the "allocs/event"
// counter below makes a regression visible in every run. (The hard
// CI gate lives in bench/hotpath.cc, which exits non-zero.)
#include "alloc_counter.hh"

#include "core/experiment.hh"
#include "hw/machine.hh"
#include "net/message.hh"
#include "sim/event_queue.hh"
#include "sim/fixed_containers.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/sample_size.hh"
#include "stats/shapiro_wilk.hh"

namespace {

using namespace tpv;
using bench::g_allocs;
using bench::Sink;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < batch; ++i)
            q.schedule(i * 10, [&sink] { ++sink; });
        while (!q.empty())
            q.runNext();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

/**
 * Steady-state Message-capturing schedule/fire: every fired event
 * delivers a message and schedules its successor at a pseudo-random
 * future instant, holding the queue at a constant depth — the inner
 * loop of a simulated run. Messages ride a slot pool exactly like
 * net::Link's in-flight payloads, and the "allocs/event" counter
 * must read 0.00 once the tables are warm.
 */
void
BM_EventQueueSteadyMessage(benchmark::State &state)
{
    const int depth = static_cast<int>(state.range(0));
    Sink sink;
    EventQueue q;
    SlotPool<net::Message> pool;
    net::Message msg;
    msg.bytes = 100;
    std::uint64_t rnd = 12345;
    Time now = 0;

    auto sched = [&](auto &&self, Time when) -> void {
        msg.id = rnd;
        net::Endpoint *dst = &sink;
        const std::uint32_t idx = pool.acquire(msg);
        q.schedule(when, [idx, dst, &pool, &q, &self, &rnd, &now] {
            dst->onMessage(pool.take(idx));
            rnd = rnd * 6364136223846793005ULL + 1442695040888963407ULL;
            self(self,
                 now + 1 + static_cast<Time>((rnd >> 33) % 1024));
        });
    };
    for (int i = 0; i < depth; ++i)
        sched(sched, i);
    for (int i = 0; i < depth * 4; ++i)
        now = q.runNext(); // reach the high-water mark
    const std::uint64_t allocs0 = g_allocs.load();
    std::int64_t fired = 0;
    for (auto _ : state) {
        now = q.runNext();
        ++fired;
    }
    benchmark::DoNotOptimize(sink.seen);
    state.SetItemsProcessed(fired);
    state.counters["allocs/event"] =
        fired ? static_cast<double>(g_allocs.load() - allocs0) /
                    static_cast<double>(fired)
              : 0;
}
BENCHMARK(BM_EventQueueSteadyMessage)->Arg(64)->Arg(512);

/**
 * Steady-state re-clocking: every fired event schedules its successor
 * and moves one pending event to a new time, as a hardware thread's
 * completion moves on every speed change of its core. The queue holds
 * a constant depth and "allocs/event" must read 0.00 once warm.
 */
void
BM_EventQueueReschedule(benchmark::State &state)
{
    const int depth = static_cast<int>(state.range(0));
    EventQueue q;
    std::vector<EventHandle> handles(static_cast<std::size_t>(depth));
    std::uint64_t rnd = 12345;
    auto draw = [&rnd](std::uint64_t bound) {
        rnd = rnd * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<Time>((rnd >> 33) % bound);
    };

    auto arm = [&](auto &&self, std::size_t k, Time when) -> void {
        handles[k] = q.schedule(when, [k, when, &self, &q, &handles,
                                       &draw] {
            self(self, k, when + 1 + draw(1024));
            const auto j = static_cast<std::size_t>(
                draw(static_cast<std::uint64_t>(handles.size())));
            handles[j] = q.reschedule(handles[j], when + 1 + draw(1024));
        });
    };
    for (int i = 0; i < depth; ++i)
        arm(arm, static_cast<std::size_t>(i), i);
    for (int i = 0; i < depth * 4; ++i)
        q.runNext(); // reach the high-water mark
    const std::uint64_t allocs0 = g_allocs.load();
    std::int64_t fired = 0;
    for (auto _ : state) {
        q.runNext();
        ++fired;
    }
    state.SetItemsProcessed(fired);
    state.counters["allocs/event"] =
        fired ? static_cast<double>(g_allocs.load() - allocs0) /
                    static_cast<double>(fired)
              : 0;
}
BENCHMARK(BM_EventQueueReschedule)->Arg(64)->Arg(512);

/** Batch Message-capturing schedule-then-drain. */
void
BM_EventQueueBatchMessage(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    Sink sink;
    EventQueue q;
    SlotPool<net::Message> pool;
    net::Message msg;
    msg.bytes = 100;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            msg.id = static_cast<std::uint64_t>(i);
            net::Endpoint *dst = &sink;
            const std::uint32_t idx = pool.acquire(msg);
            q.schedule(i, [idx, dst, &pool] {
                dst->onMessage(pool.take(idx));
            });
        }
        while (!q.empty())
            q.runNext();
    }
    benchmark::DoNotOptimize(sink.seen);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueBatchMessage)->Arg(1024);

/**
 * Interleaved schedule/cancel/fire at the hedge-timer ratio (15 of
 * 16 events cancel); every cancel removes its heap entry at once.
 */
void
BM_EventQueueScheduleCancelFire(benchmark::State &state)
{
    const int batch = 4096;
    EventQueue q;
    std::vector<EventHandle> handles;
    handles.reserve(batch);
    std::uint64_t fired = 0;
    for (auto _ : state) {
        handles.clear();
        for (int i = 0; i < batch; ++i)
            handles.push_back(q.schedule(i, [&fired] { ++fired; }));
        for (int i = 0; i < batch; ++i) {
            if (i % 16 != 0)
                q.cancel(handles[static_cast<std::size_t>(i)]);
        }
        while (!q.empty())
            q.runNext();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleCancelFire);

void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::vector<EventHandle> hs;
        hs.reserve(4096);
        for (int i = 0; i < 4096; ++i)
            hs.push_back(q.schedule(i, [] {}));
        for (std::size_t i = 0; i < hs.size(); i += 2)
            q.cancel(hs[i]);
        while (!q.empty())
            q.runNext();
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void
BM_RngExponential(benchmark::State &state)
{
    Rng rng(1);
    double acc = 0;
    for (auto _ : state)
        acc += rng.exponential(10.0);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngExponential);

void
BM_RngLognormal(benchmark::State &state)
{
    Rng rng(1);
    double acc = 0;
    for (auto _ : state)
        acc += rng.lognormalMeanSd(10.0, 2.0);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngLognormal);

/** The same draw with its parameters built once, as the draw sites do. */
void
BM_RngLognormalPrecomputed(benchmark::State &state)
{
    Rng rng(1);
    const Rng::Lognormal p(10.0, 2.0);
    double acc = 0;
    for (auto _ : state)
        acc += rng.lognormal(p);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngLognormalPrecomputed);

/**
 * Turbo-bin moves on the HP client (10 cores, performance governor,
 * turbo): two cores run endless tasks, so the machine sits at the
 * top bin's edge, and each iteration runs a short task on a third
 * core — the bin drops when it starts and returns when it completes.
 * Each move visits all ten frequency domains and re-clocks the
 * running threads.
 */
void
BM_TurboBinMove(benchmark::State &state)
{
    Simulator sim;
    hw::HwConfig cfg = hw::HwConfig::clientHP();
    cfg.tickless = true;
    hw::Machine m(sim, cfg);
    m.core(0).thread(0).submit(seconds(1000000), nullptr);
    m.core(1).thread(0).submit(seconds(1000000), nullptr);
    hw::HwThread &toggled = m.core(2).thread(0);
    for (auto _ : state) {
        toggled.submit(usec(1), nullptr);
        sim.runUntil(sim.now() + usec(2));
    }
    state.SetItemsProcessed(state.iterations() * 2);
    state.counters["transitions/iter"] = benchmark::Counter(
        static_cast<double>(m.stats().freqTransitions) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TurboBinMove);

/**
 * Submit/complete on one hardware thread, each task submitted from
 * the previous one's completion — the response path's shape (IRQ
 * work, then the handler's follow-up work) — with a full Message in
 * the capture, as the server dispatch path carries.
 */
void
BM_HwThreadSubmitComplete(benchmark::State &state)
{
    Simulator sim;
    hw::HwConfig cfg = hw::HwConfig::clientHP();
    cfg.tickless = true;
    cfg.turbo = false;
    hw::Machine m(sim, cfg);
    struct Chain
    {
        hw::HwThread *t;
        long left = 0;
        net::Message msg;

        void
        next()
        {
            if (left-- <= 0)
                return;
            ++msg.id;
            t->submit(100, [this, msg = msg] {
                benchmark::DoNotOptimize(msg.id);
                next();
            });
        }
    };
    Chain chain{&m.core(0).thread(0), 0, net::Message{}};
    const long perIter = 1000;
    for (auto _ : state) {
        chain.left = perIter;
        chain.next();
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * perIter);
}
BENCHMARK(BM_HwThreadSubmitComplete);

std::vector<double>
samples(int n)
{
    Rng rng(7);
    std::vector<double> xs;
    xs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        xs.push_back(rng.normal(100, 10));
    return xs;
}

void
BM_Percentile(benchmark::State &state)
{
    auto xs = samples(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::percentile(xs, 99));
}
BENCHMARK(BM_Percentile)->Arg(1000)->Arg(100000);

void
BM_ShapiroWilk50(benchmark::State &state)
{
    auto xs = samples(50);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::shapiroWilk(xs).pValue);
}
BENCHMARK(BM_ShapiroWilk50);

void
BM_Confirm50(benchmark::State &state)
{
    auto xs = samples(50);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::confirmIterations(xs).iterations);
}
BENCHMARK(BM_Confirm50);

void
BM_NonparametricCI(benchmark::State &state)
{
    auto xs = samples(50);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::nonparametricMedianCI(xs).lower);
}
BENCHMARK(BM_NonparametricCI);

void
BM_MemcachedSimulatedSecond(benchmark::State &state)
{
    const double qps = static_cast<double>(state.range(0));
    for (auto _ : state) {
        auto cfg = core::ExperimentConfig::forMemcached(qps);
        cfg.gen.warmup = msec(10);
        cfg.gen.duration = msec(100);
        auto r = core::runOnce(cfg);
        benchmark::DoNotOptimize(r.latency.mean);
    }
    // Report simulated requests per wall second.
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(qps * 0.11));
}
BENCHMARK(BM_MemcachedSimulatedSecond)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

} // namespace
