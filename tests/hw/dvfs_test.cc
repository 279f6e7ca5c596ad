/** @file Tests for the frequency domain (driver/governor/turbo). */

#include "hw/dvfs.hh"

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace tpv {
namespace hw {
namespace {

/** Standalone (owner-less) domains: no core re-clocks or bills energy. */
struct DomainFixture
{
    Simulator sim;
    int active = 1;

    FreqDomain
    make(const HwConfig &cfg)
    {
        return FreqDomain(sim, cfg, active);
    }
};

HwConfig
perfConfig()
{
    HwConfig c = HwConfig::serverBaseline(); // performance, no turbo
    return c;
}

HwConfig
powersaveConfig()
{
    HwConfig c = HwConfig::clientLP();
    c.turbo = false; // pin max to nominal for simpler expectations
    return c;
}

TEST(FreqDomain, PerformanceStartsAtMax)
{
    DomainFixture f;
    HwConfig cfg = perfConfig();
    auto d = f.make(cfg);
    EXPECT_DOUBLE_EQ(d.currentGhz(), cfg.nominalGhz);
    EXPECT_DOUBLE_EQ(d.speedFactor(), 1.0);
}

TEST(FreqDomain, PowersaveStartsAtMin)
{
    DomainFixture f;
    HwConfig cfg = powersaveConfig();
    auto d = f.make(cfg);
    EXPECT_DOUBLE_EQ(d.currentGhz(), cfg.minGhz);
    EXPECT_LT(d.speedFactor(), 1.0);
}

TEST(FreqDomain, PowersaveRampsAfterSamplePeriod)
{
    DomainFixture f;
    HwConfig cfg = powersaveConfig();
    auto d = f.make(cfg);
    d.onCoreWake(msec(1)); // cold wake: min frequency + scheduled ramp
    EXPECT_DOUBLE_EQ(d.currentGhz(), cfg.minGhz);
    const Time rampAt = cfg.psSamplePeriod + cfg.dvfsTransition;
    f.sim.runUntil(rampAt - 1);
    EXPECT_DOUBLE_EQ(d.currentGhz(), cfg.minGhz);
    f.sim.runUntil(rampAt + 1);
    EXPECT_DOUBLE_EQ(d.currentGhz(), cfg.nominalGhz);
}

TEST(FreqDomain, PowersaveWakeFrequencyTracksUtilization)
{
    // intel_pstate-style behaviour: a core that is ~50% busy wakes at
    // roughly the middle of its frequency range.
    DomainFixture f;
    HwConfig cfg = powersaveConfig();
    auto d = f.make(cfg);
    for (int i = 0; i < 40; ++i) {
        d.onCoreIdle(usec(50));  // 50us busy
        d.onCoreWake(usec(50));  // 50us idle
    }
    EXPECT_NEAR(d.utilization(), 0.5, 0.02);
    const double expect = cfg.minGhz + 0.5 * (cfg.nominalGhz - cfg.minGhz);
    EXPECT_NEAR(d.currentGhz(), expect, 0.1);
}

TEST(FreqDomain, PowersaveMostlyIdleCoreWakesNearMin)
{
    // The LP client's generator core: ~1% utilisation -> the response
    // path starts at minimum frequency (the paper's DVFS overhead).
    DomainFixture f;
    HwConfig cfg = powersaveConfig();
    auto d = f.make(cfg);
    for (int i = 0; i < 40; ++i) {
        d.onCoreIdle(usec(10));
        d.onCoreWake(usec(990));
    }
    EXPECT_LT(d.utilization(), 0.05);
    EXPECT_NEAR(d.currentGhz(), cfg.minGhz, 0.1);
}

TEST(FreqDomain, PowersaveUtilizationMonotoneInBusyFraction)
{
    DomainFixture f;
    HwConfig cfg = powersaveConfig();
    double prev = -1;
    for (double busyUs : {5.0, 20.0, 50.0, 80.0}) {
        auto d = f.make(cfg);
        for (int i = 0; i < 40; ++i) {
            d.onCoreIdle(usec(busyUs));
            d.onCoreWake(usec(100.0 - busyUs));
        }
        EXPECT_GT(d.currentGhz(), prev);
        prev = d.currentGhz();
    }
}

TEST(FreqDomain, PowersaveIdleCancelsPendingRamp)
{
    DomainFixture f;
    HwConfig cfg = powersaveConfig();
    auto d = f.make(cfg);
    d.onCoreWake(msec(1));
    d.onCoreIdle(usec(5)); // back to sleep before the ramp fires
    f.sim.runUntil(msec(1));
    EXPECT_DOUBLE_EQ(d.currentGhz(), cfg.minGhz);
}

TEST(FreqDomain, UserspaceNeverMoves)
{
    DomainFixture f;
    HwConfig cfg = perfConfig();
    cfg.governor = FreqGovernor::Userspace;
    auto d = f.make(cfg);
    d.onCoreWake(seconds(1));
    f.sim.runUntil(msec(10));
    EXPECT_DOUBLE_EQ(d.currentGhz(), cfg.nominalGhz);
    EXPECT_EQ(d.transitions(), 0u);
}

TEST(FreqDomain, TurboBinsByActiveCores)
{
    DomainFixture f;
    HwConfig cfg = perfConfig();
    cfg.turbo = true; // 10 cores: <=2 active -> 3.0, <=5 -> 2.6, else 2.2
    auto d = f.make(cfg);

    // Machine hands each domain the bin of the new active-core count.
    f.active = 1;
    d.onTurboBinChanged(FreqDomain::turboBinGhz(cfg, f.active));
    EXPECT_DOUBLE_EQ(d.currentGhz(), cfg.turboGhz);
    EXPECT_DOUBLE_EQ(d.maxAvailableGhz(), cfg.turboGhz);

    f.active = 5;
    d.onTurboBinChanged(FreqDomain::turboBinGhz(cfg, f.active));
    EXPECT_DOUBLE_EQ(d.currentGhz(), 0.5 * (cfg.turboGhz + cfg.nominalGhz));

    f.active = 9;
    d.onTurboBinChanged(FreqDomain::turboBinGhz(cfg, f.active));
    EXPECT_DOUBLE_EQ(d.currentGhz(), cfg.nominalGhz);
}

TEST(FreqDomain, NoTurboIgnoresActiveCores)
{
    DomainFixture f;
    HwConfig cfg = perfConfig();
    auto d = f.make(cfg);
    EXPECT_FALSE(FreqDomain::followsTurboBin(cfg));
    f.active = 1;
    EXPECT_DOUBLE_EQ(FreqDomain::turboBinGhz(cfg, f.active), cfg.nominalGhz);
    EXPECT_DOUBLE_EQ(d.maxAvailableGhz(), cfg.nominalGhz);
    EXPECT_DOUBLE_EQ(d.currentGhz(), cfg.nominalGhz);
}

TEST(FreqDomain, TransitionsCounted)
{
    DomainFixture f;
    HwConfig cfg = powersaveConfig();
    auto d = f.make(cfg);
    EXPECT_EQ(d.transitions(), 0u);
    d.onCoreWake(msec(1));
    f.sim.runUntil(msec(1));
    const std::uint64_t after = d.transitions();
    EXPECT_GE(after, 1u);
    // A move to the frequency the domain already runs at is no
    // transition.
    d.onTurboBinChanged(d.currentGhz());
    EXPECT_EQ(d.transitions(), after);
}

TEST(FreqDomain, SpeedFactorMatchesRatio)
{
    DomainFixture f;
    HwConfig cfg = powersaveConfig();
    auto d = f.make(cfg);
    EXPECT_DOUBLE_EQ(d.speedFactor(), cfg.minGhz / cfg.nominalGhz);
}

} // namespace
} // namespace hw
} // namespace tpv
