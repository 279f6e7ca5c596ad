/**
 * @file
 * End-to-end non-stationary load studies: profile-modulated arrivals
 * through the full client/network/service stack, swept as a grid.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenario.hh"
#include "core/study.hh"

namespace tpv {
namespace core {
namespace {

ExperimentConfig
quickConfig(double qps)
{
    auto cfg = ExperimentConfig::forMemcached(qps);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(100);
    return cfg;
}

TEST(Nonstationary, FlashCrowdSendsMoreThanConstant)
{
    // A 3x flash crowd over the middle of the window must raise the
    // total offered load well above the stationary run.
    auto constant = quickConfig(50e3);
    auto crowd = quickConfig(50e3);
    crowd.gen.profile = loadgen::LoadProfileParams::flashCrowd(
        3.0, msec(30), msec(80));
    const auto base = runOnce(constant);
    const auto burst = runOnce(crowd);
    EXPECT_GT(static_cast<double>(burst.sent),
              1.5 * static_cast<double>(base.sent));
}

TEST(Nonstationary, RunsAreSeedDeterministic)
{
    auto cfg = quickConfig(40e3);
    cfg.gen.profile =
        loadgen::LoadProfileParams::mmpp(4.0, msec(20), msec(10));
    cfg.seed = 4242;
    const auto a = runOnce(cfg);
    const auto b = runOnce(cfg);
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.latency.mean, b.latency.mean);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.events, b.events);
}

TEST(Nonstationary, ProfileGridIsParallelDeterministic)
{
    const std::vector<loadgen::LoadProfileParams> profiles = {
        loadgen::LoadProfileParams::constant(),
        loadgen::LoadProfileParams::diurnal(0.6, msec(50)),
        loadgen::LoadProfileParams::flashCrowd(3.0, msec(20), msec(60)),
        loadgen::LoadProfileParams::mmpp(4.0, msec(20), msec(10)),
    };
    const auto factory = [](const std::string &label,
                            const loadgen::LoadProfileParams &) {
        auto cfg = quickConfig(40e3);
        cfg.client = label == "LP" ? hw::HwConfig::clientLP()
                                   : hw::HwConfig::clientHP();
        cfg.gen.duration = msec(50);
        cfg.label = label;
        return cfg;
    };

    RunnerOptions serial;
    serial.runs = 3;
    serial.baseSeed = 2024;
    serial.parallelism = 1;
    RunnerOptions parallel = serial;
    parallel.parallelism = 6;

    const auto a = sweep<ProfileAxis>({"LP", "HP"}, profiles, factory, serial);
    const auto b =
        sweep<ProfileAxis>({"LP", "HP"}, profiles, factory, parallel);
    ASSERT_EQ(a.cells.size(), 8u);
    ASSERT_EQ(b.cells.size(), 8u);
    for (std::size_t c = 0; c < a.cells.size(); ++c) {
        EXPECT_EQ(a.cells[c].config, b.cells[c].config);
        for (std::size_t r = 0; r < a.cells[c].result.runs.size(); ++r) {
            EXPECT_EQ(a.cells[c].result.avgPerRun[r],
                      b.cells[c].result.avgPerRun[r])
                << a.cells[c].config << " run " << r;
            EXPECT_EQ(a.cells[c].result.p99PerRun[r],
                      b.cells[c].result.p99PerRun[r]);
        }
    }
    // Cell labels carry the profile shape.
    EXPECT_EQ(a.cells[0].config, "LP/constant");
    EXPECT_EQ(a.cells[1].config, "LP/diurnal");
    EXPECT_EQ(a.cells[2].config, "LP/step");
    EXPECT_EQ(a.cells[3].config, "LP/mmpp");
    EXPECT_EQ(a.cells[4].config, "HP/constant");
}

TEST(Nonstationary, DuplicateProfileKindsGetDistinctCells)
{
    // Two diurnal profiles that differ only in amplitude must land in
    // separately addressable cells.
    const std::vector<loadgen::LoadProfileParams> profiles = {
        loadgen::LoadProfileParams::diurnal(0.3, msec(50)),
        loadgen::LoadProfileParams::diurnal(0.8, msec(50)),
    };
    RunnerOptions opt;
    opt.runs = 1;
    const auto factory = [](const std::string &,
                            const loadgen::LoadProfileParams &) {
        auto cfg = quickConfig(20e3);
        cfg.gen.duration = msec(20);
        return cfg;
    };
    const auto grid = sweep<ProfileAxis>({"LP"}, profiles, factory, opt);
    ASSERT_EQ(grid.cells.size(), 2u);
    EXPECT_EQ(grid.cells[0].config, "LP/diurnal");
    EXPECT_EQ(grid.cells[1].config, "LP/diurnal#2");
    // Both reachable through the keyed lookup.
    EXPECT_EQ(&grid.at("LP/diurnal#2", 20e3), &grid.cells[1]);
}

TEST(Nonstationary, ScenarioTaxonomyCoversLoadShapes)
{
    const auto rows = nonstationaryScenarios();
    EXPECT_EQ(rows.size(), 12u); // 4 Table III rows x 3 shapes
    for (const auto &s : rows) {
        EXPECT_NE(s.loadShape, loadgen::LoadProfileKind::Constant);
        // The label spells the shape out.
        EXPECT_NE(s.label().find("load "), std::string::npos);
    }
    // Stationary rows keep their historical labels.
    for (const auto &s : tableIIIScenarios())
        EXPECT_EQ(s.label().find("load "), std::string::npos);
}

} // namespace
} // namespace core
} // namespace tpv
