/** @file Tests for the per-core energy accounting. */

#include "hw/machine.hh"

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace tpv {
namespace hw {
namespace {

HwConfig
powerConfig()
{
    HwConfig c;
    c.cores = 1;
    c.cstates = {CState::C0, CState::C1, CState::C1E, CState::C6};
    // Performance with turbo off (the defaults): fixed nominal GHz.
    c.tickless = true;
    return c;
}

TEST(Power, ActivePowerFollowsCubicLaw)
{
    HwConfig c = powerConfig();
    EXPECT_DOUBLE_EQ(c.activePowerW(c.nominalGhz),
                     c.activePowerBaseW + c.activePowerDynW);
    // Half frequency: dynamic part drops 8x.
    EXPECT_NEAR(c.activePowerW(c.nominalGhz / 2),
                c.activePowerBaseW + c.activePowerDynW / 8.0, 1e-12);
}

TEST(Power, BusyCoreAccruesActiveEnergy)
{
    Simulator sim;
    Machine m(sim, powerConfig());
    m.thread(0).submit(msec(10), nullptr);
    sim.run();
    // 10ms at ~6W = 60mJ (plus negligible idle accrual).
    const double expected =
        powerConfig().activePowerW(2.2) * 10e-3;
    EXPECT_NEAR(m.core(0).energyJoules(), expected, expected * 0.02);
}

TEST(Power, DeepSleepIsCheaperThanShallow)
{
    auto energyWithGovernor = [](IdleGovernorKind kind) {
        Simulator sim;
        HwConfig c = powerConfig();
        c.idleGovernor = kind;
        Machine m(sim, c);
        // Prime one wake so the core re-enters idle via its governor.
        m.thread(0).submit(usec(10), nullptr);
        sim.runUntil(msec(50));
        return m.core(0).energyJoules();
    };
    const double deep = energyWithGovernor(IdleGovernorKind::AlwaysDeepest);
    const double shallow =
        energyWithGovernor(IdleGovernorKind::AlwaysShallowest);
    EXPECT_LT(deep, shallow / 2);
}

TEST(Power, PollIdleBurnsFarMoreThanSleep)
{
    // The HP client's cost: idle=poll spends pollPowerW forever,
    // while a sleeping core (deepest state for a fair floor) draws
    // milliwatts.
    auto idleEnergy = [](bool poll) {
        Simulator sim;
        HwConfig c = powerConfig();
        c.idlePoll = poll;
        c.cstates = poll ? std::vector<CState>{CState::C0} : c.cstates;
        c.idleGovernor = IdleGovernorKind::AlwaysDeepest;
        Machine m(sim, c);
        m.thread(0).submit(usec(10), nullptr);
        sim.runUntil(msec(50));
        return m.core(0).energyJoules();
    };
    EXPECT_GT(idleEnergy(true), 5 * idleEnergy(false));
}

TEST(Power, WakeRampBilledAtStaticPowerOnly)
{
    // A core forced into C6 with frequent wakes spends real time in
    // the Waking state; that time must be billed at static power, not
    // full active power (C1E's 20us break-even depends on this).
    Simulator sim;
    HwConfig c = powerConfig();
    c.idleGovernor = IdleGovernorKind::AlwaysDeepest;
    Machine m(sim, c);
    // One wake: 10us of work after a long C6 sleep.
    sim.at(msec(10), [&] { m.thread(0).submit(usec(10), nullptr); });
    sim.run();
    // Energy = ~10ms C6 sleep (0.03W) + 133us ramp (1W) + 10us active
    // (6W) + trailing C6.
    const double expected = 0.03 * 10e-3 + 1.0 * 133e-6 + 6.0 * 10e-6;
    EXPECT_NEAR(m.core(0).energyJoules(), expected, expected * 0.1);
}

TEST(Power, EnergyIsMonotoneInTime)
{
    Simulator sim;
    Machine m(sim, powerConfig());
    m.thread(0).submit(msec(1), nullptr);
    sim.runUntil(msec(2));
    const double early = m.core(0).energyJoules();
    sim.runUntil(msec(20));
    EXPECT_GT(m.core(0).energyJoules(), early);
}

TEST(Power, MachineStatsAggregateEnergy)
{
    Simulator sim;
    HwConfig c = powerConfig();
    c.cores = 4;
    Machine m(sim, c);
    for (int i = 0; i < 4; ++i)
        m.thread(static_cast<std::size_t>(i)).submit(msec(1), nullptr);
    sim.runUntil(msec(5));
    double sum = 0;
    for (std::size_t i = 0; i < 4; ++i)
        sum += m.core(i).energyJoules();
    EXPECT_NEAR(m.stats().energyJoules, sum, 1e-9);
    EXPECT_GT(sum, 0);
}

TEST(Power, PowersaveGovernorSavesEnergyAtLowUtilisation)
{
    // A lightly loaded powersave core runs slow-and-long at low
    // power; performance runs fast-and-short at high power. With
    // cubic dynamic power, powersave wins on energy — the whole
    // reason LP configurations exist.
    auto energyWith = [](FreqGovernor gov) {
        Simulator sim;
        HwConfig c = powerConfig();
        c.governor = gov;
        Machine m(sim, c);
        for (int i = 0; i < 50; ++i)
            sim.at(msec(1) * i, [&] { m.thread(0).submit(usec(20), nullptr); });
        sim.runUntil(msec(60));
        return m.stats().energyJoules;
    };
    const double powersave = energyWith(FreqGovernor::Powersave);
    const double performance = energyWith(FreqGovernor::Performance);
    EXPECT_LT(powersave, performance);
}

} // namespace
} // namespace hw
} // namespace tpv
