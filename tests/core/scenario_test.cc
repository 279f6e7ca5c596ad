/** @file Tests for the Table III scenario taxonomy. */

#include "core/scenario.hh"

#include <gtest/gtest.h>

namespace tpv {
namespace core {
namespace {

TEST(Scenario, TableIIIHasFourRows)
{
    auto rows = tableIIIScenarios();
    ASSERT_EQ(rows.size(), 4u);
}

TEST(Scenario, ExactlyOneRowIsRisky)
{
    // Table III marks exactly one scenario with X: time-sensitive,
    // in-app, not-tuned client, small response time.
    auto rows = tableIIIScenarios();
    int riskyCount = 0;
    for (const auto &s : rows)
        riskyCount += risky(s);
    EXPECT_EQ(riskyCount, 1);
}

TEST(Scenario, TheRiskyRowIsTheUntunedTimeSensitiveOne)
{
    for (const auto &s : tableIIIScenarios()) {
        if (risky(s)) {
            EXPECT_EQ(s.interarrival, loadgen::SendMode::BlockWait);
            EXPECT_FALSE(s.clientTuned);
            EXPECT_FALSE(s.bigResponseTime);
        }
    }
}

TEST(Scenario, TunedClientIsNotRisky)
{
    Scenario s;
    s.interarrival = loadgen::SendMode::BlockWait;
    s.clientTuned = true;
    s.bigResponseTime = false;
    EXPECT_FALSE(risky(s));
}

TEST(Scenario, BigResponseTimeIsNotRisky)
{
    Scenario s;
    s.interarrival = loadgen::SendMode::BlockWait;
    s.clientTuned = false;
    s.bigResponseTime = true;
    EXPECT_FALSE(risky(s));
}

TEST(Scenario, NicMeasurementDefusesTheRisk)
{
    // An ablation beyond the paper's rows: hardware timestamping
    // removes the client-side inflation even on an untuned client.
    Scenario s;
    s.interarrival = loadgen::SendMode::BlockWait;
    s.measure = loadgen::MeasurePoint::Nic;
    s.clientTuned = false;
    s.bigResponseTime = false;
    EXPECT_FALSE(risky(s));
}

TEST(Scenario, ClassifyUsesServiceLatencyThreshold)
{
    // Memcached (~40us e2e) counts as small; HDSearch (~1ms) as big.
    auto mc = classify(loadgen::SendMode::BlockWait,
                       loadgen::MeasurePoint::InApp, false, usec(40));
    EXPECT_FALSE(mc.bigResponseTime);
    EXPECT_TRUE(risky(mc));
    auto hds = classify(loadgen::SendMode::BusyWait,
                        loadgen::MeasurePoint::InApp, false, msec(1));
    EXPECT_TRUE(hds.bigResponseTime);
    EXPECT_FALSE(risky(hds));
}

TEST(Scenario, LabelsAreDescriptive)
{
    auto rows = tableIIIScenarios();
    EXPECT_NE(rows[0].label().find("time-sensitive"), std::string::npos);
    EXPECT_NE(rows[0].label().find("tuned"), std::string::npos);
    EXPECT_NE(rows[2].label().find("time-insensitive"), std::string::npos);
}

} // namespace
} // namespace core
} // namespace tpv
