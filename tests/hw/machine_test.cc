/** @file Tests for the machine-level model (topology, IRQ, uncore). */

#include "hw/machine.hh"

#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.hh"

namespace tpv {
namespace hw {
namespace {

HwConfig
basicConfig()
{
    HwConfig c;
    c.name = "basic";
    c.cores = 4;
    c.smt = false;
    c.cstates = {CState::C0};
    c.tickless = true;
    return c;
}

TEST(Machine, TopologyWithoutSmt)
{
    Simulator sim;
    Machine m(sim, basicConfig());
    EXPECT_EQ(m.coreCount(), 4u);
    EXPECT_EQ(m.threadCount(), 4u);
}

TEST(Machine, TopologyWithSmt)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.smt = true;
    Machine m(sim, cfg);
    EXPECT_EQ(m.coreCount(), 4u);
    EXPECT_EQ(m.threadCount(), 8u);
}

TEST(Machine, GlobalThreadIndexingMatchesLinuxSiblingOrder)
{
    // Index i is thread i / cores of core i % cores: 0..cores-1 are
    // thread 0 of each core, cores..2*cores-1 the SMT siblings.
    for (const bool smt : {false, true}) {
        Simulator sim;
        HwConfig cfg = basicConfig();
        cfg.smt = smt;
        Machine m(sim, cfg);
        ASSERT_EQ(m.threadCount(), m.coreCount() * (smt ? 2 : 1));
        for (std::size_t i = 0; i < m.threadCount(); ++i) {
            EXPECT_EQ(&m.thread(i),
                      &m.core(i % m.coreCount())
                           .thread(static_cast<int>(i / m.coreCount())))
                << "smt=" << smt << " index " << i;
        }
    }
}

TEST(MachineDeathTest, RejectsThreadIndexOutOfRange)
{
    for (const bool smt : {false, true}) {
        Simulator sim;
        HwConfig cfg = basicConfig();
        cfg.smt = smt;
        Machine m(sim, cfg);
        EXPECT_DEATH(m.thread(m.threadCount()),
                     "thread index out of range: " +
                         std::to_string(m.threadCount()));
    }
}

TEST(Machine, ActiveCoresSettleToZero)
{
    Simulator sim;
    Machine m(sim, basicConfig());
    EXPECT_EQ(m.activeCores(), 0);
}

TEST(Machine, ActiveCoresTrackBusyWork)
{
    Simulator sim;
    Machine m(sim, basicConfig());
    m.thread(0).submit(usec(50), nullptr);
    m.thread(1).submit(usec(100), nullptr);
    sim.runUntil(usec(10));
    EXPECT_EQ(m.activeCores(), 2);
    sim.runUntil(usec(60));
    EXPECT_EQ(m.activeCores(), 1);
    sim.run();
    EXPECT_EQ(m.activeCores(), 0);
}

TEST(Machine, DeliverIrqRunsHandlerAfterIrqWork)
{
    Simulator sim;
    Machine m(sim, basicConfig());
    Time handled = -1;
    m.deliverIrq(2, usec(2), [&] { handled = sim.now(); });
    sim.run();
    EXPECT_EQ(handled, usec(2));
    EXPECT_EQ(m.stats().irqsDelivered, 1u);
}

TEST(Machine, UncoreDynamicPenalisesIdlePackage)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.uncoreDynamic = true;
    cfg.uncoreWake = usec(5);
    cfg.uncoreIdleThreshold = usec(100);
    Machine m(sim, cfg);

    // Package idle since t=0; first IRQ after 1ms pays the penalty.
    Time handled = -1;
    sim.at(msec(1), [&] { m.deliverIrq(0, usec(2), [&] { handled = sim.now(); }); });
    sim.run();
    EXPECT_EQ(handled, msec(1) + usec(5) + usec(2));
    EXPECT_EQ(m.stats().uncoreWakePenalties, 1u);
}

TEST(Machine, UncoreFixedNeverPenalises)
{
    Simulator sim;
    Machine m(sim, basicConfig()); // uncoreDynamic = false
    Time handled = -1;
    sim.at(msec(1), [&] { m.deliverIrq(0, usec(2), [&] { handled = sim.now(); }); });
    sim.run();
    EXPECT_EQ(handled, msec(1) + usec(2));
    EXPECT_EQ(m.stats().uncoreWakePenalties, 0u);
}

TEST(Machine, UncoreStaysWarmUnderSteadyTraffic)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.uncoreDynamic = true;
    cfg.uncoreIdleThreshold = usec(100);
    Machine m(sim, cfg);
    // IRQs every 50us keep the package active: only the first pays.
    for (int i = 0; i < 20; ++i)
        sim.at(msec(1) + usec(50) * i,
               [&] { m.deliverIrq(0, usec(1), nullptr); });
    sim.run();
    EXPECT_EQ(m.stats().uncoreWakePenalties, 1u);
}

TEST(Machine, StatsAggregateAcrossCores)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.cstates = {CState::C0, CState::C1};
    Machine m(sim, cfg);
    // Build up idle history, then wake two cores a few times.
    for (int i = 1; i <= 6; ++i) {
        sim.at(usec(100) * i, [&] {
            m.thread(0).submit(usec(1), nullptr);
            m.thread(1).submit(usec(1), nullptr);
        });
    }
    sim.run();
    const MachineStats s = m.stats();
    EXPECT_EQ(s.wakes,
              m.core(0).stats().wakes + m.core(1).stats().wakes +
                  m.core(2).stats().wakes + m.core(3).stats().wakes);
    EXPECT_GT(s.wakes, 0u);
}

TEST(Machine, NamePropagates)
{
    Simulator sim;
    Machine m(sim, basicConfig(), "client-0");
    EXPECT_EQ(m.name(), "client-0");
}

TEST(Machine, TurboBinsRespondToLoad)
{
    Simulator sim;
    HwConfig cfg = basicConfig();
    cfg.governor = FreqGovernor::Performance;
    cfg.turbo = true; // 4 cores: 1 active -> turbo bin
    Machine m(sim, cfg);

    m.thread(0).submit(usec(50), nullptr);
    sim.runUntil(usec(10));
    EXPECT_DOUBLE_EQ(m.core(0).freq().currentGhz(), cfg.turboGhz);

    // Load three more cores: bins drop to nominal.
    m.thread(1).submit(usec(50), nullptr);
    m.thread(2).submit(usec(50), nullptr);
    m.thread(3).submit(usec(50), nullptr);
    sim.runUntil(usec(20));
    EXPECT_DOUBLE_EQ(m.core(0).freq().currentGhz(), cfg.nominalGhz);
}

} // namespace
} // namespace hw
} // namespace tpv
