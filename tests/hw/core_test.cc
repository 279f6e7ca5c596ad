/** @file Tests for the core / hardware-thread execution model. */

#include "hw/core.hh"
#include "hw/machine.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "sim/simulator.hh"

namespace tpv {
namespace hw {
namespace {

/** Fixed-frequency single-thread config: work runs in nominal time. */
HwConfig
plainConfig()
{
    HwConfig c;
    c.name = "plain";
    c.cores = 2;
    c.smt = false;
    c.idlePoll = false;
    c.cstates = {CState::C0}; // sleep costs nothing
    c.turbo = false;
    c.tickless = true;
    return c;
}

TEST(HwThread, WorkRunsInNominalTimeAtNominalFrequency)
{
    Simulator sim;
    Machine m(sim, plainConfig());
    Time doneAt = -1;
    m.thread(0).submit(usec(10), [&] { doneAt = sim.now(); });
    sim.run();
    EXPECT_EQ(doneAt, usec(10));
}

TEST(HwThread, FifoOrderWithinThread)
{
    Simulator sim;
    Machine m(sim, plainConfig());
    std::vector<int> order;
    m.thread(0).submit(usec(10), [&] { order.push_back(1); });
    m.thread(0).submit(usec(5), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(HwThread, QueuedWorkSerializes)
{
    Simulator sim;
    Machine m(sim, plainConfig());
    Time firstDone = -1, secondDone = -1;
    m.thread(0).submit(usec(10), [&] { firstDone = sim.now(); });
    m.thread(0).submit(usec(5), [&] { secondDone = sim.now(); });
    sim.run();
    EXPECT_EQ(firstDone, usec(10));
    EXPECT_EQ(secondDone, usec(15));
}

TEST(HwThread, ParallelThreadsOnDifferentCores)
{
    Simulator sim;
    Machine m(sim, plainConfig());
    Time a = -1, b = -1;
    m.thread(0).submit(usec(10), [&] { a = sim.now(); });
    m.thread(1).submit(usec(10), [&] { b = sim.now(); });
    sim.run();
    EXPECT_EQ(a, usec(10));
    EXPECT_EQ(b, usec(10));
}

TEST(HwThread, ZeroWorkCompletesImmediately)
{
    Simulator sim;
    Machine m(sim, plainConfig());
    Time doneAt = -1;
    m.thread(0).submit(0, [&] { doneAt = sim.now(); });
    sim.run();
    EXPECT_EQ(doneAt, 0);
}

TEST(HwThread, CallbackCanChainWork)
{
    Simulator sim;
    Machine m(sim, plainConfig());
    Time secondDone = -1;
    m.thread(0).submit(usec(5), [&] {
        m.thread(0).submit(usec(5), [&] { secondDone = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(secondDone, usec(10));
}

TEST(HwThread, TasksCompletedCounter)
{
    Simulator sim;
    Machine m(sim, plainConfig());
    for (int i = 0; i < 5; ++i)
        m.thread(0).submit(usec(1), nullptr);
    sim.run();
    EXPECT_EQ(m.thread(0).tasksCompleted(), 5u);
    EXPECT_EQ(m.thread(0).workCompleted(), usec(5));
}

TEST(HwThread, SleepUntilFiresAtRequestedTime)
{
    Simulator sim;
    Machine m(sim, plainConfig());
    Time fired = -1;
    m.thread(0).sleepUntil(
        usec(100), [] { return Time{0}; }, [&] { fired = sim.now(); });
    sim.run();
    EXPECT_EQ(fired, usec(100));
}

TEST(HwThread, SleepUntilDispatchWorkDelaysCallback)
{
    Simulator sim;
    Machine m(sim, plainConfig());
    Time fired = -1;
    m.thread(0).sleepUntil(
        usec(100), [] { return usec(5); }, [&] { fired = sim.now(); });
    sim.run();
    EXPECT_EQ(fired, usec(105));
}

TEST(HwThread, DirectStartKeepsFifoForSubmitsFromCompletions)
{
    // A submission starts at once only while the thread is stopped
    // with nothing queued; a completion callback that submits while
    // earlier work waits must queue behind it.
    Simulator sim;
    Machine m(sim, plainConfig());
    HwThread &t = m.thread(0);
    std::vector<std::pair<char, Time>> done;
    auto mark = [&](char c) { done.emplace_back(c, sim.now()); };
    t.submit(usec(5), [&] {
        mark('A');
        t.submit(usec(1), [&] { mark('C'); });
        t.submit(usec(1), [&] {
            mark('D');
            // Stopped thread, empty queue, active core: starts now.
            t.submit(usec(3), [&] { mark('E'); });
        });
    });
    t.submit(usec(2), [&] { mark('B'); });
    sim.run();
    const std::vector<std::pair<char, Time>> want = {
        {'A', usec(5)}, {'B', usec(7)}, {'C', usec(8)},
        {'D', usec(9)}, {'E', usec(12)}};
    EXPECT_EQ(done, want);
    EXPECT_EQ(t.tasksCompleted(), 5u);
    EXPECT_EQ(t.workCompleted(), usec(12));
}

TEST(HwThread, GuardedAndUnguardedSubmissionsKeepFifo)
{
    Simulator sim;
    Machine m(sim, plainConfig());
    HwThread &t = m.thread(0);
    std::vector<std::pair<int, Time>> done;
    auto mark = [&](int i) { done.emplace_back(i, sim.now()); };
    t.submit(usec(5), [&] {
        mark(1);
        // From a completion with work still queued: a guarded and an
        // unguarded submission land behind it, in order.
        t.submitGuarded(usec(1), [&] { mark(6); }, [] { return true; });
        t.submit(usec(1), [&] { mark(7); });
    });
    t.submitGuarded(usec(2), [&] { mark(2); }, [] { return true; });
    t.submit(usec(1), [&] { mark(3); });
    t.submitGuarded(usec(4), [&] { mark(-1); }, [] { return false; });
    t.submit(usec(1), [&] { mark(4); });
    t.submitGuarded(usec(1), [&] { mark(5); }, [] { return true; });
    sim.run();
    const std::vector<std::pair<int, Time>> want = {
        {1, usec(5)},  {2, usec(7)},  {3, usec(8)}, {4, usec(9)},
        {5, usec(10)}, {6, usec(11)}, {7, usec(12)}};
    EXPECT_EQ(done, want);
    // The refused task spent no work.
    EXPECT_EQ(t.workCompleted(), usec(12));
}

/** plainConfig() with a C1E sleep, so submissions to an idle core
 *  queue behind its wake. */
HwConfig
c1eConfigForGuards()
{
    HwConfig c = plainConfig();
    c.cstates = {CState::C0, CState::C1E};
    c.idleGovernor = IdleGovernorKind::AlwaysDeepest;
    return c;
}

TEST(HwThread, InPlaceAndPrebuiltSubmissionsKeepFifo)
{
    // A lambda built into its run-queue (or in-flight) slot and a
    // pre-built Callback queue alike, whichever starts at once.
    Simulator sim;
    Machine m(sim, plainConfig());
    HwThread &t = m.thread(0);
    std::vector<int> done;
    auto mark = [&done](int i) { return [&done, i] { done.push_back(i); }; };
    t.submit(usec(1), HwThread::Callback(mark(1))); // starts at once
    t.submit(usec(1), mark(2));
    t.submit(usec(1), HwThread::Callback(mark(3)));
    t.submit(usec(1), mark(4));
    sim.at(usec(10), [&] {
        t.submit(usec(1), mark(5)); // starts at once, built in place
        t.submit(usec(1), HwThread::Callback(mark(6)));
        t.submit(usec(1), mark(7));
    });
    sim.run();
    EXPECT_EQ(done, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(t.workCompleted(), usec(7));
}

TEST(HwThread, GuardRefusedAtRingFrontKeepsRunQueueConsistent)
{
    // Refused tasks leave the ring front without running. Queue on a
    // waking core so every guard is met as the wake finishes, then
    // reuse the ring across a wrap and a growth.
    HwConfig cfg = c1eConfigForGuards();
    Simulator sim;
    Machine m(sim, cfg);
    HwThread &t = m.thread(0);
    std::vector<int> done;
    auto mark = [&done](int i) { return [&done, i] { done.push_back(i); }; };
    int refused = 0;
    sim.at(msec(1), [&] {
        for (int i = 0; i < 3; ++i) {
            t.submitGuarded(usec(1), mark(-1), [&refused] {
                ++refused;
                return false;
            });
        }
        t.submit(usec(2), mark(1));
        t.submitGuarded(usec(1), mark(-1), [&refused] {
            ++refused;
            return false;
        });
        t.submitGuarded(usec(1), mark(2), [] { return true; });
        t.submit(usec(1), HwThread::Callback(mark(3)));
        EXPECT_EQ(t.queued(), 7u);
    });
    // Every queued task refused: the wake was for nothing, the core
    // settles back to idle and the queue is empty.
    sim.at(msec(2), [&] {
        t.submitGuarded(usec(1), mark(-1), [&refused] {
            ++refused;
            return false;
        });
    });
    sim.run();
    EXPECT_EQ(done, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(refused, 5);
    EXPECT_EQ(t.queued(), 0u);
    EXPECT_FALSE(t.busy());
    EXPECT_TRUE(m.core(0).sleeping());
    EXPECT_EQ(t.tasksCompleted(), 3u);
    EXPECT_EQ(t.workCompleted(), usec(4));
    // The ring still queues and starts work after the refusals.
    sim.at(msec(3), [&] {
        for (int i = 4; i < 80; ++i)
            t.submit(usec(1), mark(i));
    });
    sim.run();
    ASSERT_EQ(done.size(), 79u);
    for (int i = 1; i < 80; ++i)
        EXPECT_EQ(done[static_cast<std::size_t>(i - 1)], i);
}

// --- C-state wake latency --------------------------------------------

HwConfig
c1eConfig()
{
    HwConfig c = plainConfig();
    c.name = "c1e-only";
    c.cstates = {CState::C0, CState::C1E};
    return c;
}

TEST(Core, WakeLatencyPaidAfterIdleHistory)
{
    Simulator sim;
    Machine m(sim, c1eConfig());

    // Teach the governor that idles last ~100us so it picks C1E.
    for (int i = 1; i <= 8; ++i)
        sim.at(usec(100) * i, [&] { m.thread(0).submit(usec(1), nullptr); });
    sim.run();
    ASSERT_EQ(m.core(0).currentCState(), CState::C1E);

    // Next submission must pay the 10us C1E exit latency.
    Time doneAt = -1;
    const Time start = sim.now() + usec(100);
    sim.at(start, [&] { m.thread(0).submit(usec(1), [&] { doneAt = sim.now(); }); });
    sim.run();
    EXPECT_EQ(doneAt, start + usec(10) + usec(1));
    EXPECT_GT(m.core(0).stats().exitLatencyPaid, 0);
}

TEST(Core, NoWakeLatencyWithIdlePoll)
{
    Simulator sim;
    HwConfig cfg = plainConfig();
    cfg.idlePoll = true;
    Machine m(sim, cfg);
    for (int i = 1; i <= 8; ++i)
        sim.at(usec(100) * i, [&] { m.thread(0).submit(usec(1), nullptr); });
    sim.run();
    Time doneAt = -1;
    const Time start = sim.now() + usec(100);
    sim.at(start, [&] { m.thread(0).submit(usec(1), [&] { doneAt = sim.now(); }); });
    sim.run();
    EXPECT_EQ(doneAt, start + usec(1));
    EXPECT_EQ(m.core(0).stats().exitLatencyPaid, 0);
}

TEST(Core, WakeCountsTracked)
{
    Simulator sim;
    Machine m(sim, c1eConfig());
    for (int i = 1; i <= 4; ++i)
        sim.at(msec(1) * i, [&] { m.thread(0).submit(usec(1), nullptr); });
    sim.run();
    EXPECT_EQ(m.core(0).stats().wakes, 4u);
}

TEST(Core, WorkArrivingDuringWakeQueuesUntilAwake)
{
    Simulator sim;
    Machine m(sim, c1eConfig());
    // Prime history for C1E.
    for (int i = 1; i <= 8; ++i)
        sim.at(usec(100) * i, [&] { m.thread(0).submit(usec(1), nullptr); });
    sim.run();
    ASSERT_EQ(m.core(0).currentCState(), CState::C1E);

    const Time start = sim.now() + usec(100);
    Time aDone = -1, bDone = -1;
    sim.at(start, [&] { m.thread(0).submit(usec(2), [&] { aDone = sim.now(); }); });
    // Second task lands mid-wake (wake takes 10us).
    sim.at(start + usec(4),
           [&] { m.thread(0).submit(usec(2), [&] { bDone = sim.now(); }); });
    sim.run();
    EXPECT_EQ(aDone, start + usec(10) + usec(2));
    EXPECT_EQ(bDone, start + usec(10) + usec(4));
}

// --- SMT contention ---------------------------------------------------

HwConfig
smtConfig()
{
    HwConfig c = plainConfig();
    c.name = "smt";
    c.cores = 1;
    c.smt = true;
    return c;
}

TEST(Core, SmtSiblingsShareThroughput)
{
    Simulator sim;
    Machine m(sim, smtConfig());
    Time a = -1, b = -1;
    m.core(0).thread(0).submit(usec(100), [&] { a = sim.now(); });
    m.core(0).thread(1).submit(usec(100), [&] { b = sim.now(); });
    sim.run();
    // Both run at 0.65 throughput: 100us / 0.65 = 153.8us.
    EXPECT_NEAR(toUsec(a), 100.0 / 0.65, 0.1);
    EXPECT_NEAR(toUsec(b), 100.0 / 0.65, 0.1);
}

TEST(Core, SmtSpeedRestoresWhenSiblingFinishes)
{
    Simulator sim;
    Machine m(sim, smtConfig());
    Time a = -1, b = -1;
    m.core(0).thread(0).submit(usec(100), [&] { a = sim.now(); });
    m.core(0).thread(1).submit(usec(20), [&] { b = sim.now(); });
    sim.run();
    // B finishes at 20/0.65 = 30.77us having consumed 20us of A's
    // progress budget at 0.65; A then runs alone:
    // A progress at 30.77us = 30.77*0.65 = 20us; remaining 80us at 1.0.
    EXPECT_NEAR(toUsec(b), 20.0 / 0.65, 0.1);
    EXPECT_NEAR(toUsec(a), 20.0 / 0.65 + 80.0, 0.2);
}

TEST(Core, SmtLateArrivalSlowsInFlightWork)
{
    Simulator sim;
    Machine m(sim, smtConfig());
    Time a = -1;
    m.core(0).thread(0).submit(usec(100), [&] { a = sim.now(); });
    sim.at(usec(50), [&] { m.core(0).thread(1).submit(usec(100), nullptr); });
    sim.run();
    // A: 50us alone + 50us remaining at 0.65 = 50 + 76.9 = 126.9us.
    EXPECT_NEAR(toUsec(a), 50.0 + 50.0 / 0.65, 0.2);
}

TEST(Core, ThreadStartingAfterTurboBinMoveRunsAtNewBin)
{
    // Bin moves re-clock running threads only; a thread that was
    // stopped through them picks up the current bin when it starts.
    // Here the SMT sibling of a busy core starts after the machine
    // drained from the nominal bin back to full turbo.
    Simulator sim;
    HwConfig cfg = HwConfig::clientHP(); // 10 cores, turbo, performance
    cfg.tickless = true;
    Machine m(sim, cfg);
    HwThread &busy = m.core(9).thread(0);
    HwThread &sibling = m.core(9).thread(1);
    busy.submit(msec(1), nullptr);
    // Six more busy cores push the bin down to nominal ...
    for (std::size_t c = 0; c < 6; ++c)
        m.core(c).thread(0).submit(usec(50), nullptr);
    // ... while the sibling runs one task there and stops.
    Time firstDone = -1;
    sibling.submit(usec(1), [&] { firstDone = sim.now(); });
    ASSERT_EQ(m.activeCores(), 7);
    ASSERT_DOUBLE_EQ(m.core(9).freq().currentGhz(), cfg.nominalGhz);

    // By 200us the six have drained: one busy core, full turbo.
    const Time work = usec(10) + 7; // not a multiple of the speed
    const Time start = usec(200);
    Time doneAt = -1;
    sim.at(start, [&] {
        ASSERT_EQ(m.activeCores(), 1);
        ASSERT_DOUBLE_EQ(m.core(9).freq().currentGhz(), cfg.turboGhz);
        ASSERT_FALSE(sibling.running());
        sibling.submit(work, [&] { doneAt = sim.now(); });
    });
    sim.runUntil(usec(300));
    ASSERT_GT(firstDone, 0);
    const double speed =
        (cfg.turboGhz / cfg.nominalGhz) * cfg.smtThroughput;
    EXPECT_EQ(doneAt,
              start + static_cast<Time>(std::ceil(
                          static_cast<double>(work) / speed)));
}

TEST(Core, SingleThreadUnaffectedWithoutSibling)
{
    Simulator sim;
    Machine m(sim, smtConfig());
    Time a = -1;
    m.core(0).thread(0).submit(usec(100), [&] { a = sim.now(); });
    sim.run();
    EXPECT_EQ(a, usec(100));
}

// --- DVFS interaction -------------------------------------------------

TEST(Core, PowersaveWakeRunsSlowThenRamps)
{
    Simulator sim;
    HwConfig cfg = plainConfig();
    cfg.name = "powersave";
    cfg.governor = FreqGovernor::Powersave;
    cfg.driver = FreqDriver::IntelPstate;
    Machine m(sim, cfg);

    // Submit 100us of nominal work to a cold core (freq = 0.8 GHz).
    // The governor's sample period (500us) far exceeds the task, so
    // the whole task runs at 0.8/2.2 of nominal speed.
    Time doneAt = -1;
    m.thread(0).submit(usec(100), [&] { doneAt = sim.now(); });
    sim.run();
    EXPECT_NEAR(toUsec(doneAt), 100.0 / (0.8 / 2.2), 0.5);
}

TEST(Core, PerformanceGovernorRunsFullSpeedImmediately)
{
    Simulator sim;
    HwConfig cfg = plainConfig();
    cfg.governor = FreqGovernor::Performance;
    Machine m(sim, cfg);
    Time doneAt = -1;
    m.thread(0).submit(usec(100), [&] { doneAt = sim.now(); });
    sim.run();
    EXPECT_EQ(doneAt, usec(100));
}

// --- Kernel tick ------------------------------------------------------

TEST(Core, PeriodicTickWakesSleepingCores)
{
    Simulator sim;
    HwConfig cfg = c1eConfig();
    cfg.tickless = false;
    cfg.tickPeriod = msec(1);
    Machine m(sim, cfg);
    sim.runUntil(msec(20));
    // Each core must have been woken by its tick ~20 times.
    EXPECT_GE(m.core(0).stats().wakes, 15u);
    EXPECT_GE(m.core(1).stats().wakes, 15u);
}

TEST(Core, TicklessCoresStayAsleep)
{
    Simulator sim;
    Machine m(sim, c1eConfig()); // tickless=true
    sim.runUntil(msec(20));
    EXPECT_EQ(m.core(0).stats().wakes, 0u);
}

TEST(Core, AlwaysDeepestGovernorSleepsIntoC6)
{
    Simulator sim;
    HwConfig cfg = plainConfig();
    cfg.cstates = {CState::C0, CState::C1, CState::C1E, CState::C6};
    cfg.idleGovernor = IdleGovernorKind::AlwaysDeepest;
    Machine m(sim, cfg);
    // Even with short idles, the policy always picks C6.
    for (int i = 1; i <= 4; ++i)
        sim.at(usec(50) * i, [&] { m.thread(0).submit(usec(1), nullptr); });
    sim.run();
    EXPECT_EQ(m.core(0).currentCState(), CState::C6);
    // Every wake paid the full C6 exit latency.
    const auto &st = m.core(0).stats();
    EXPECT_GT(st.wakes, 0u);
    EXPECT_EQ(st.exitLatencyPaid,
              static_cast<Time>(st.wakes) * usec(133));
}

TEST(Core, AlwaysShallowestGovernorStaysInC1)
{
    Simulator sim;
    HwConfig cfg = plainConfig();
    cfg.cstates = {CState::C0, CState::C1, CState::C1E, CState::C6};
    cfg.idleGovernor = IdleGovernorKind::AlwaysShallowest;
    Machine m(sim, cfg);
    for (int i = 1; i <= 4; ++i)
        sim.at(msec(1) * i, [&] { m.thread(0).submit(usec(1), nullptr); });
    sim.run();
    EXPECT_EQ(m.core(0).currentCState(), CState::C1);
}

TEST(Core, TickCapsIdlePrediction)
{
    Simulator sim;
    HwConfig cfg = plainConfig();
    cfg.cstates = {CState::C0, CState::C1, CState::C1E, CState::C6};
    cfg.tickless = false;
    cfg.tickPeriod = msec(1);
    Machine m(sim, cfg);
    sim.runUntil(msec(5));
    // With a 1ms tick the prediction is at most 1ms, which still
    // allows C6 (600us residency) — but after tick-dominated idles
    // (~1ms actual) the governor settles on C6, not on the hintless
    // shallow default.
    EXPECT_EQ(m.core(0).currentCState(), CState::C6);
}

} // namespace
} // namespace hw
} // namespace tpv
