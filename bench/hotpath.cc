/**
 * @file
 * Hot-path events/sec driver: the tracked perf baseline behind the
 * zero-allocation simulator rewrite.
 *
 * Measures the event queue under the shapes the simulator actually
 * runs — steady-state schedule/fire with a Message payload (one event
 * in, one event out, constant queue depth: the inner loop of every
 * simulated run), the same with a re-clock (reschedule) per event,
 * batch schedule-then-drain, and the cancel-heavy hedge-timer
 * pattern — plus full simulated runs (memcached, hedged HDSearch, a
 * 34-machine HDSearch, two paper memcached cells whose sleeping
 * client cores cross C-states, DVFS and turbo bins on every request,
 * and the keyed memcached cell with finite shard caches), and writes
 * the numbers to BENCH_hotpath.json so the perf trajectory is tracked
 * from commit to commit.
 *
 * It is also the allocation gate: a replaced operator new counts
 * every heap allocation, and the driver *fails* (exit 1) if the
 * steady-state schedule/fire or re-clock loop, or a warm HDSearch,
 * paper-cell or keyed-cache run, allocates at all. Use this in CI so
 * the zero-allocation property cannot silently rot.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "alloc_counter.hh"
#include "bench_common.hh"

#include "core/experiment.hh"
#include "hw/machine.hh"
#include "loadgen/openloop.hh"
#include "net/link.hh"
#include "net/message.hh"
#include "sim/event_queue.hh"
#include "sim/fixed_containers.hh"
#include "svc/hdsearch.hh"
#include "svc/memcached.hh"

namespace {

using namespace tpv;
using bench::g_allocs;
using bench::Sink;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Steady-state schedule/fire with a Message payload: every fired
 * event delivers a message and schedules its successor, holding the
 * queue at @p depth — the shape of a simulation in flight. The
 * message parks in a slot pool and the event captures its index, the
 * same pattern net::Link uses.
 * @return events per second; *allocs gets the allocations performed
 *         after warmup (must be zero).
 */
double
steadyMessageEvents(long total, int depth, std::uint64_t *allocs)
{
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

    // Warm to the high-water mark before arming the allocation gate.
    long fired = 0;
    for (; fired < depth * 4; ++fired)
        now = q.runNext();
    const std::uint64_t allocs0 = g_allocs.load();
    const auto t0 = Clock::now();
    for (; fired < total; ++fired)
        now = q.runNext();
    const double secs = secondsSince(t0);
    *allocs = g_allocs.load() - allocs0;
    return static_cast<double>(total - depth * 4) / secs;
}

/**
 * Steady-state re-clocking: every fired event schedules its successor
 * and then moves one pending event (possibly that successor) to a new
 * time — what an SMT sibling's start or stop, a DVFS step or a turbo-
 * bin move does to a hardware thread's in-flight completion. Holds
 * the queue at @p depth.
 * @return events per second; *allocs gets the allocations performed
 *         after warmup (must be zero).
 */
double
steadyReclockEvents(long total, int depth, std::uint64_t *allocs)
{
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

    long fired = 0;
    for (; fired < depth * 4; ++fired)
        q.runNext();
    const std::uint64_t allocs0 = g_allocs.load();
    const auto t0 = Clock::now();
    for (; fired < total; ++fired)
        q.runNext();
    const double secs = secondsSince(t0);
    *allocs = g_allocs.load() - allocs0;
    return static_cast<double>(total - depth * 4) / secs;
}

/** Batch schedule-then-drain with Message payloads. */
double
batchMessageEvents(long reps, int batch)
{
    Sink sink;
    EventQueue q;
    SlotPool<net::Message> pool;
    net::Message msg;
    msg.bytes = 100;
    const auto t0 = Clock::now();
    for (long r = 0; r < reps; ++r) {
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
    return static_cast<double>(reps * batch) / secondsSince(t0);
}

/**
 * The hedge-timer shape: most scheduled events are cancelled before
 * they fire (each cancel removes its heap entry at once), the rest
 * fire in order.
 */
double
scheduleCancelEvents(long reps, int batch)
{
    EventQueue q;
    std::vector<EventHandle> handles;
    handles.reserve(static_cast<std::size_t>(batch));
    std::uint64_t fired = 0;
    const auto t0 = Clock::now();
    for (long r = 0; r < reps; ++r) {
        handles.clear();
        for (int i = 0; i < batch; ++i)
            handles.push_back(q.schedule(i, [&fired] { ++fired; }));
        // 15 of 16 cancel — a hedging fan-out where nearly every
        // timer is beaten by its primary reply.
        for (int i = 0; i < batch; ++i) {
            if (i % 16 != 0)
                q.cancel(handles[static_cast<std::size_t>(i)]);
        }
        while (!q.empty())
            q.runNext();
    }
    return static_cast<double>(reps * batch) / secondsSince(t0);
}

/** Full simulated memcached runs: end-to-end events per wall second. */
double
simulatedRunEvents(int runs)
{
    auto cfg = core::ExperimentConfig::forMemcached(100000);
    cfg.gen.warmup = msec(10);
    cfg.gen.duration = msec(100);
    std::uint64_t events = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < runs; ++i) {
        cfg.seed = static_cast<std::uint64_t>(i) + 1;
        events += core::runOnce(cfg).events;
    }
    return static_cast<double>(events) / secondsSince(t0);
}

/**
 * Fan-out-heavy (hedged HDSearch) runs: allocations per simulated
 * event. This tracks the Fanout RpcContext pooling — contexts ride a
 * SlotPool with the slot index in the sub-request id, so a query
 * costs no map node and no vector growth once pools reach their
 * high-water mark. Remaining allocations are per-run setup (machine
 * and tier construction), which amortises over the events.
 */
double
fanoutRunAllocsPerEvent(int runs, double *eventsPerSec)
{
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(10);
    cfg.gen.duration = msec(100);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    cfg.seed = 1;
    (void)core::runOnce(cfg); // warm executor/static state
    std::uint64_t events = 0;
    const std::uint64_t allocs0 = g_allocs.load();
    const auto t0 = Clock::now();
    for (int i = 0; i < runs; ++i) {
        cfg.seed = static_cast<std::uint64_t>(i) + 2;
        events += core::runOnce(cfg).events;
    }
    *eventsPerSec = static_cast<double>(events) / secondsSince(t0);
    return static_cast<double>(g_allocs.load() - allocs0) /
           static_cast<double>(events);
}

/** Late-bound endpoint (the generator and the service reference each
 *  other), mirroring runOnce's relay. */
struct LateBound : net::Endpoint
{
    net::Endpoint *target = nullptr;
    void
    onMessage(const net::Message &m) override
    {
        target->onMessage(m);
    }
};

/**
 * Steady-state allocations of a hedged HDSearch run: build the full
 * cluster, run past every pool's and vector's high-water mark, then
 * count heap allocations over the rest of the run. The recorder
 * pre-reserves for its sample rate, fan-out contexts and in-flight
 * messages ride slot pools, and event callbacks live inline — so the
 * measured segment must allocate *nothing*. This is the gated
 * successor of the old whole-run allocs/event metric, whose 0.05-ish
 * residue turned out to be the fan-out context pool growing without
 * bound: 20 kqps overdrives this shape ~2.4x, and an overloaded
 * open-loop system has no steady state — in-flight work (and the
 * slot pool underneath it) grows for as long as the run lasts. The
 * gate therefore measures a *sustainable* load (~60% utilisation),
 * where every pool tops out during warmup; overload behaviour is
 * bench/overload's subject, not an allocation question.
 */
double
hdsearchSteadyAllocsPerEvent(std::uint64_t *steadyAllocs)
{
    auto cfg = core::ExperimentConfig::forHdSearch(5000);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    cfg.gen.warmup = msec(10);
    cfg.gen.duration = msec(300);

    Simulator sim;
    Rng rootRng(1);
    hw::HwConfig clientCfg = cfg.client;
    // Busy-wait sends + blocking completions: a completion-thread
    // bank beside the generator threads, as in runOnce.
    clientCfg.cores = std::max(clientCfg.cores, cfg.gen.threads * 2);
    hw::Machine client(sim, clientCfg, "client", rootRng.u64());
    net::Link toServer(sim, rootRng.fork(), cfg.network);
    net::Link toClient(sim, rootRng.fork(), cfg.network);
    LateBound door;
    loadgen::OpenLoopGenerator gen(sim, client, toServer, door, cfg.gen,
                                   rootRng.fork());
    svc::HdSearchCluster cluster(sim, cfg.server, toClient, gen,
                                 rootRng.fork(), cfg.hdsearch);
    door.target = &cluster;
    gen.start();

    // Warm through half the run: the stochastic in-flight high-water
    // mark (and with it the slot pools and core run queues) needs
    // real traffic time to top out, not just the recorder's warmup.
    sim.runUntil(msec(150));
    const std::uint64_t events0 = sim.executedEvents();
    const std::uint64_t allocs0 = g_allocs.load();
    sim.runUntil(gen.windowEnd() + msec(50));
    *steadyAllocs = g_allocs.load() - allocs0;
    return static_cast<double>(*steadyAllocs) /
           static_cast<double>(sim.executedEvents() - events0);
}

/**
 * One cell of the paper's memcached grid (Figs 2-3, Table IV), built
 * as runOnce builds it: 40 blocking generator threads on a client
 * that sleeps between requests, so every request crosses the client's
 * C-state, governor, DVFS and turbo-bin path — the path the busy-wait
 * rows above never take. Warms through half the run, then measures
 * events per wall second and heap allocations (must be zero) over the
 * rest, drain included.
 */
double
paperCellEventsPerSec(const char *label, double qps,
                      std::uint64_t *steadyAllocs)
{
    core::ExperimentConfig cfg = bench::configFor(
        label, core::ExperimentConfig::forMemcached(qps));
    cfg.gen.warmup = msec(10);
    cfg.gen.duration = msec(200);
    Simulator sim;
    Rng rootRng(7);
    hw::HwConfig clientCfg = cfg.client;
    clientCfg.cores = std::max(clientCfg.cores, cfg.gen.threads);
    hw::Machine client(sim, clientCfg, "client", rootRng.u64());
    net::Link toServer(sim, rootRng.fork(), cfg.network);
    net::Link toClient(sim, rootRng.fork(), cfg.network);
    LateBound door;
    loadgen::OpenLoopGenerator gen(sim, client, toServer, door, cfg.gen,
                                   rootRng.fork());
    hw::Machine server(sim, cfg.server, "server", rootRng.u64());
    svc::MemcachedServer service(sim, server, toClient, gen,
                                 rootRng.fork(), cfg.memcached);
    door.target = &service;
    gen.start();

    sim.runUntil(gen.windowEnd() / 2);
    const std::uint64_t events0 = sim.executedEvents();
    const std::uint64_t allocs0 = g_allocs.load();
    const auto t0 = Clock::now();
    sim.runUntil(gen.windowEnd() + msec(5));
    const double secs = secondsSince(t0);
    *steadyAllocs = g_allocs.load() - allocs0;
    return static_cast<double>(sim.executedEvents() - events0) / secs;
}

/**
 * The keyed memcached cell perfbench's keyed_cache workload runs:
 * memcached s8 behind the router, Zipf(0.99) traffic over 64K keys,
 * 4K-entry LRU shard caches and a backing store, at 20K QPS, with
 * the caches prewarmed (@p cold false) or empty. Built as runOnce
 * builds it; warms through half the run, then measures events per
 * wall second and heap allocations (must be zero: cache fills,
 * evictions and index updates reuse what the constructor reserved)
 * over the rest, drain included.
 */
double
keyedCellEventsPerSec(bool cold, std::uint64_t *steadyAllocs)
{
    core::ExperimentConfig cfg = bench::configFor(
        "LP-SMToff", core::ExperimentConfig::forMemcached(20e3));
    cfg.gen.warmup = msec(10);
    cfg.gen.duration = msec(200);
    cfg.memcached.shards = 8;
    svc::CacheShape cache;
    cache.keys = 1 << 16;
    cache.skew = 0.99;
    cache.capacityEntries = 1 << 12;
    cache.eviction = svc::EvictionPolicy::Lru;
    cache.coldStart = cold;
    core::applyCacheShape(cfg, cache);
    Simulator sim;
    Rng rootRng(11);
    hw::HwConfig clientCfg = cfg.client;
    clientCfg.cores = std::max(clientCfg.cores, cfg.gen.threads);
    hw::Machine client(sim, clientCfg, "client", rootRng.u64());
    net::Link toServer(sim, rootRng.fork(), cfg.network);
    net::Link toClient(sim, rootRng.fork(), cfg.network);
    LateBound door;
    loadgen::OpenLoopGenerator gen(sim, client, toServer, door, cfg.gen,
                                   rootRng.fork());
    svc::MemcachedCluster service(sim, cfg.server, toClient, gen,
                                  rootRng.fork(), cfg.memcached);
    door.target = &service;
    gen.start();

    sim.runUntil(gen.windowEnd() / 2);
    const std::uint64_t events0 = sim.executedEvents();
    const std::uint64_t allocs0 = g_allocs.load();
    const auto t0 = Clock::now();
    sim.runUntil(gen.windowEnd() + msec(5));
    const double secs = secondsSince(t0);
    *steadyAllocs = g_allocs.load() - allocs0;
    return static_cast<double>(sim.executedEvents() - events0) / secs;
}

/**
 * One *large* HDSearch topology (32 shards over 32 bucket machines +
 * midtier + client) at datacenter link latencies: events per wall
 * second of a serial run. 5K QPS keeps the shape sustainable — every
 * request sent in the window is answered — so the number prices a
 * steady state rather than a backlog growing for as long as the run
 * lasts. `*sent` / `*received` sum the recorder counts over the runs.
 */
double
bigRunEventsPerSec(bool traced, std::uint64_t *sent,
                   std::uint64_t *received)
{
    auto cfg = core::ExperimentConfig::forHdSearch(5000);
    core::applyTopology(cfg, svc::TopologyShape{32, 32, usec(300)});
    cfg.network.baseLatency = usec(40);
    cfg.hdsearch.interLink.baseLatency = usec(40);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(60);
    if (traced) {
        // The flight-recorder overhead configuration CI gates: head
        // sampling at a production-ish 1/64, no tail ring (tailN > 0
        // records every root and is priced separately).
        cfg.obs.trace = true;
        cfg.obs.sampleEveryN = 64;
        cfg.obs.tailN = 0;
    }
    std::uint64_t events = 0;
    *sent = *received = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < 2; ++i) {
        cfg.seed = static_cast<std::uint64_t>(i) + 1;
        const core::RunResult r = core::runOnce(cfg);
        events += r.events;
        *sent += r.sent;
        *received += r.received;
    }
    return static_cast<double>(events) / secondsSince(t0);
}

} // namespace

int
main()
{
    std::printf("hot-path events/sec (see BENCH_hotpath.json)\n\n");

    std::uint64_t steadyAllocs = ~0ULL;
    const double steady =
        steadyMessageEvents(5'000'000, 512, &steadyAllocs);
    std::uint64_t reclockAllocs = ~0ULL;
    const double reclock =
        steadyReclockEvents(5'000'000, 512, &reclockAllocs);
    const double batch = batchMessageEvents(2000, 1024);
    const double cancel = scheduleCancelEvents(500, 4096);
    const double run = simulatedRunEvents(5);
    double fanoutRun = 0;
    (void)fanoutRunAllocsPerEvent(4, &fanoutRun);
    std::uint64_t steadyRunAllocs = ~0ULL;
    const double runAllocs =
        hdsearchSteadyAllocsPerEvent(&steadyRunAllocs);
    std::uint64_t bigSent = 0, bigReceived = 0;
    const double big = bigRunEventsPerSec(false, &bigSent, &bigReceived);
    std::uint64_t trSent = 0, trReceived = 0;
    const double bigTraced = bigRunEventsPerSec(true, &trSent, &trReceived);
    std::uint64_t lpCellAllocs = ~0ULL, hpCellAllocs = ~0ULL;
    const double lpCell =
        paperCellEventsPerSec("LP-SMToff", 100e3, &lpCellAllocs);
    const double hpCell =
        paperCellEventsPerSec("HP-SMToff", 300e3, &hpCellAllocs);
    std::uint64_t warmKeyedAllocs = ~0ULL, coldKeyedAllocs = ~0ULL;
    const double warmKeyed = keyedCellEventsPerSec(false, &warmKeyedAllocs);
    const double coldKeyed = keyedCellEventsPerSec(true, &coldKeyedAllocs);

    std::printf("  %-34s %10.2f Mev/s\n",
                "steady-state Message schedule/fire", steady / 1e6);
    std::printf("  %-34s %10.2f Mev/s\n",
                "steady-state schedule/re-clock", reclock / 1e6);
    std::printf("  %-34s %10.2f Mev/s\n",
                "batch Message schedule/drain", batch / 1e6);
    std::printf("  %-34s %10.2f Mev/s\n", "schedule/cancel (hedge shape)",
                cancel / 1e6);
    std::printf("  %-34s %10.2f Mev/s\n", "simulated memcached run", run / 1e6);
    std::printf("  %-34s %10.2f Mev/s\n", "hedged HDSearch run",
                fanoutRun / 1e6);
    std::printf("  %-34s %10.4f\n", "HDSearch steady allocs/event",
                runAllocs);
    std::printf("  %-34s %10.2f Mev/s (%llu/%llu received)\n",
                "big run (34 machines)", big / 1e6,
                static_cast<unsigned long long>(bigReceived),
                static_cast<unsigned long long>(bigSent));
    std::printf("  %-34s %10.2f Mev/s (1/64 sampled)\n",
                "big run, traced", bigTraced / 1e6);
    std::printf("  %-34s %10.2f Mev/s (%llu allocs)\n",
                "paper cell LP-SMToff @ 100K", lpCell / 1e6,
                static_cast<unsigned long long>(lpCellAllocs));
    std::printf("  %-34s %10.2f Mev/s (%llu allocs)\n",
                "paper cell HP-SMToff @ 300K", hpCell / 1e6,
                static_cast<unsigned long long>(hpCellAllocs));
    std::printf("  %-34s %10.2f Mev/s (%llu allocs)\n",
                "keyed cache s8 @ 20K, warm", warmKeyed / 1e6,
                static_cast<unsigned long long>(warmKeyedAllocs));
    std::printf("  %-34s %10.2f Mev/s (%llu allocs)\n",
                "keyed cache s8 @ 20K, cold", coldKeyed / 1e6,
                static_cast<unsigned long long>(coldKeyedAllocs));
    std::printf("  %-34s %10llu\n", "steady-state heap allocations",
                static_cast<unsigned long long>(steadyAllocs +
                                                reclockAllocs));

    tpv::bench::writeBenchJson(
        "hotpath",
        {
            {"steady_message_events_per_sec", steady, "events/s"},
            {"steady_reclock_events_per_sec", reclock, "events/s"},
            {"batch_message_events_per_sec", batch, "events/s"},
            {"schedule_cancel_events_per_sec", cancel, "events/s"},
            {"memcached_run_events_per_sec", run, "events/s"},
            {"hdsearch_run_events_per_sec", fanoutRun, "events/s"},
            {"hdsearch_run_allocs_per_event", runAllocs,
             "allocs/event"},
            {"big_run_events_per_sec", big, "events/s"},
            {"big_run_events_per_sec_traced", bigTraced, "events/s"},
            {"paper_lp_smtoff_100k_events_per_sec", lpCell, "events/s"},
            {"paper_hp_smtoff_300k_events_per_sec", hpCell, "events/s"},
            {"paper_cell_steady_allocs",
             static_cast<double>(lpCellAllocs + hpCellAllocs), "allocs"},
            {"keyed_cache_warm_20k_events_per_sec", warmKeyed, "events/s"},
            {"keyed_cache_cold_20k_events_per_sec", coldKeyed, "events/s"},
            {"keyed_cache_steady_allocs",
             static_cast<double>(warmKeyedAllocs + coldKeyedAllocs),
             "allocs"},
            {"steady_state_allocs",
             static_cast<double>(steadyAllocs + reclockAllocs), "allocs"},
        });

    if (steadyAllocs != 0) {
        std::fprintf(stderr,
                     "FAIL: EventQueue::schedule hot loop performed "
                     "%llu heap allocations in steady state\n",
                     static_cast<unsigned long long>(steadyAllocs));
        return 1;
    }
    if (reclockAllocs != 0) {
        std::fprintf(stderr,
                     "FAIL: EventQueue::reschedule hot loop performed "
                     "%llu heap allocations in steady state\n",
                     static_cast<unsigned long long>(reclockAllocs));
        return 1;
    }
    if (steadyRunAllocs != 0) {
        std::fprintf(stderr,
                     "FAIL: warm HDSearch run performed %llu heap "
                     "allocations in steady state\n",
                     static_cast<unsigned long long>(steadyRunAllocs));
        return 1;
    }
    if (lpCellAllocs != 0 || hpCellAllocs != 0) {
        std::fprintf(stderr,
                     "FAIL: warm paper cells performed %llu (LP-SMToff "
                     "@ 100K) and %llu (HP-SMToff @ 300K) heap "
                     "allocations in steady state\n",
                     static_cast<unsigned long long>(lpCellAllocs),
                     static_cast<unsigned long long>(hpCellAllocs));
        return 1;
    }
    if (warmKeyedAllocs != 0 || coldKeyedAllocs != 0) {
        std::fprintf(stderr,
                     "FAIL: keyed cache cells performed %llu (warm) and "
                     "%llu (cold) heap allocations in steady state\n",
                     static_cast<unsigned long long>(warmKeyedAllocs),
                     static_cast<unsigned long long>(coldKeyedAllocs));
        return 1;
    }
    if (bigReceived < bigSent || trReceived < trSent) {
        // An overloaded big run measures a growing backlog, not the
        // simulator's steady state.
        std::fprintf(stderr,
                     "FAIL: big run answered %llu of %llu requests "
                     "(%llu of %llu traced); the shape is overloaded\n",
                     static_cast<unsigned long long>(bigReceived),
                     static_cast<unsigned long long>(bigSent),
                     static_cast<unsigned long long>(trReceived),
                     static_cast<unsigned long long>(trSent));
        return 1;
    }
    std::printf("\nsteady-state allocation and big-run gates: PASS\n");
    return 0;
}
