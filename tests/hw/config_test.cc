/** @file Tests for hardware configuration presets (Table II). */

#include "hw/config.hh"

#include <gtest/gtest.h>

#include <utility>

namespace tpv {
namespace hw {
namespace {

TEST(HwConfig, TableIIClientLP)
{
    HwConfig c = HwConfig::clientLP();
    // C-states: C0, C1, C1E, C6.
    EXPECT_TRUE(c.cstateEnabled(CState::C1));
    EXPECT_TRUE(c.cstateEnabled(CState::C1E));
    EXPECT_TRUE(c.cstateEnabled(CState::C6));
    EXPECT_FALSE(c.idlePoll);
    EXPECT_EQ(c.driver, FreqDriver::IntelPstate);
    EXPECT_EQ(c.governor, FreqGovernor::Powersave);
    EXPECT_TRUE(c.turbo);
    EXPECT_TRUE(c.smt);
    EXPECT_TRUE(c.uncoreDynamic);
    EXPECT_FALSE(c.tickless);
    c.validate();
}

TEST(HwConfig, TableIIClientHP)
{
    HwConfig c = HwConfig::clientHP();
    EXPECT_TRUE(c.idlePoll); // C-states off
    EXPECT_EQ(c.driver, FreqDriver::AcpiCpufreq);
    EXPECT_EQ(c.governor, FreqGovernor::Performance);
    EXPECT_TRUE(c.turbo);
    EXPECT_TRUE(c.smt);
    EXPECT_FALSE(c.uncoreDynamic);
    EXPECT_FALSE(c.tickless);
    c.validate();
}

TEST(HwConfig, TableIIServerBaseline)
{
    HwConfig c = HwConfig::serverBaseline();
    EXPECT_TRUE(c.cstateEnabled(CState::C0));
    EXPECT_TRUE(c.cstateEnabled(CState::C1));
    EXPECT_FALSE(c.cstateEnabled(CState::C1E));
    EXPECT_FALSE(c.cstateEnabled(CState::C6));
    EXPECT_EQ(c.governor, FreqGovernor::Performance);
    EXPECT_FALSE(c.turbo);
    EXPECT_FALSE(c.smt);
    EXPECT_TRUE(c.tickless);
    c.validate();
}

TEST(HwConfig, ServerStudyVariants)
{
    EXPECT_TRUE(HwConfig::serverSmtOn().smt);
    EXPECT_TRUE(HwConfig::serverC1eOn().cstateEnabled(CState::C1E));
    // The variants must only change the knob under study.
    HwConfig base = HwConfig::serverBaseline();
    HwConfig smt = HwConfig::serverSmtOn();
    EXPECT_EQ(base.governor, smt.governor);
    EXPECT_EQ(base.turbo, smt.turbo);
    EXPECT_EQ(base.tickless, smt.tickless);
}

TEST(HwConfig, HwThreadsDoubleWithSmt)
{
    HwConfig c = HwConfig::serverBaseline();
    EXPECT_EQ(c.hwThreads(), 10);
    c.smt = true;
    EXPECT_EQ(c.hwThreads(), 20);
}

TEST(HwConfig, C0AlwaysEnabled)
{
    HwConfig c;
    c.cstates = {};
    EXPECT_TRUE(c.cstateEnabled(CState::C0));
}

TEST(HwConfig, SkylakeTableShape)
{
    auto table = skylakeCStateTable();
    ASSERT_EQ(table.size(), 4u);
    EXPECT_EQ(table[0].state, CState::C0);
    EXPECT_EQ(table[0].exitLatency, 0);
    // Exit latencies grow with depth (paper: 2us .. 200us range).
    for (std::size_t i = 1; i < table.size(); ++i) {
        EXPECT_GT(table[i].exitLatency, table[i - 1].exitLatency);
        EXPECT_GE(table[i].targetResidency, table[i].exitLatency);
    }
    EXPECT_EQ(table[1].exitLatency, usec(2));
    EXPECT_EQ(table[3].exitLatency, usec(133));
}

TEST(HwConfig, ToStringRoundTrips)
{
    EXPECT_STREQ(toString(CState::C1E), "C1E");
    EXPECT_STREQ(toString(FreqDriver::IntelPstate), "intel_pstate");
    EXPECT_STREQ(toString(FreqGovernor::Powersave), "powersave");
}

using HwConfigDeath = HwConfig;

TEST(HwConfigDeathTest, RejectsBadFrequencyLadder)
{
    HwConfig c;
    c.minGhz = 3.0;
    c.nominalGhz = 2.0; // nominal < min
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "GHz");
}

TEST(HwConfigDeathTest, RejectsZeroCores)
{
    HwConfig c;
    c.cores = 0;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "cores");
}

TEST(HwConfigDeathTest, RejectsNegativeTimeCosts)
{
    const std::pair<const char *, Time HwConfig::*> fields[] = {
        {"irqWork", &HwConfig::irqWork},
        {"tickWork", &HwConfig::tickWork},
        {"ctxSwitch", &HwConfig::ctxSwitch},
        {"dvfsTransition", &HwConfig::dvfsTransition},
        {"psSamplePeriod", &HwConfig::psSamplePeriod},
        {"uncoreWake", &HwConfig::uncoreWake},
        {"uncoreIdleThreshold", &HwConfig::uncoreIdleThreshold},
    };
    for (const auto &[field, member] : fields) {
        HwConfig c;
        c.*member = -1;
        EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), field);
    }
}

TEST(HwConfigDeathTest, RejectsNegativeExitLatencyJitter)
{
    HwConfig c;
    c.exitLatencyJitter = -0.1;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "exitLatencyJitter");
}

} // namespace
} // namespace hw
} // namespace tpv
