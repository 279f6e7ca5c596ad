/** @file Full-grid parallel study execution through the scheduler. */

#include "core/study.hh"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tpv {
namespace core {
namespace {

auto
quickFactory()
{
    return [](const std::string &label, double qps) {
        auto cfg = ExperimentConfig::forMemcached(qps);
        cfg.client = label.substr(0, 2) == "LP" ? hw::HwConfig::clientLP()
                                                : hw::HwConfig::clientHP();
        cfg.gen.warmup = msec(5);
        cfg.gen.duration = msec(25);
        cfg.label = label;
        return cfg;
    };
}

void
expectIdenticalGrids(const StudyGrid &a, const StudyGrid &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t c = 0; c < a.cells.size(); ++c) {
        const StudyCell &ca = a.cells[c];
        const StudyCell &cb = b.cells[c];
        EXPECT_EQ(ca.config, cb.config);
        EXPECT_EQ(ca.qps, cb.qps);
        ASSERT_EQ(ca.result.runs.size(), cb.result.runs.size());
        for (std::size_t r = 0; r < ca.result.runs.size(); ++r) {
            // Bit-identical per-repetition samples, any parallelism.
            EXPECT_EQ(ca.result.avgPerRun[r], cb.result.avgPerRun[r])
                << ca.config << " @ " << ca.qps << " run " << r;
            EXPECT_EQ(ca.result.p99PerRun[r], cb.result.p99PerRun[r])
                << ca.config << " @ " << ca.qps << " run " << r;
            EXPECT_EQ(ca.result.runs[r].sent, cb.result.runs[r].sent);
            EXPECT_EQ(ca.result.runs[r].received,
                      cb.result.runs[r].received);
        }
    }
}

TEST(StudyParallel, SerialAndParallelGridsAreIdentical)
{
    const std::vector<std::string> configs{"LP", "HP"};
    const std::vector<double> loads{20e3, 50e3, 80e3};

    RunnerOptions serial;
    serial.runs = 3;
    serial.baseSeed = 77;
    serial.parallelism = 1;
    RunnerOptions parallel = serial;
    parallel.parallelism = 6;

    const auto a = sweep(configs, loads, quickFactory(), serial);
    const auto b = sweep(configs, loads, quickFactory(), parallel);
    expectIdenticalGrids(a, b);
}

TEST(StudyParallel, GridLayoutIndependentOfParallelism)
{
    RunnerOptions opt;
    opt.runs = 2;
    opt.parallelism = 5;
    const auto grid =
        sweep({"LP", "HP"}, {20e3, 50e3}, quickFactory(), opt);
    // Insertion order stays config-major regardless of which worker
    // finished which cell first.
    EXPECT_EQ(grid.configs(), (std::vector<std::string>{"LP", "HP"}));
    EXPECT_EQ(grid.loads(), (std::vector<double>{20e3, 50e3}));
    EXPECT_EQ(grid.cells[0].config, "LP");
    EXPECT_EQ(grid.cells[0].qps, 20e3);
    EXPECT_EQ(grid.cells[3].config, "HP");
    EXPECT_EQ(grid.cells[3].qps, 50e3);
}

TEST(StudyParallel, ProgressFiresExactlyOncePerCell)
{
    for (int width : {1, 4}) {
        RunnerOptions opt;
        opt.runs = 2;
        opt.parallelism = width;
        std::mutex mutex;
        std::map<std::pair<std::string, double>, RepeatedResult> fired;
        const auto grid = sweep(
            {"LP", "HP"}, {20e3, 50e3, 80e3}, quickFactory(), opt,
            [&](const StudyCell &cell) {
                // Cells must be fully aggregated when reported.
                EXPECT_EQ(cell.result.runs.size(), 2u);
                EXPECT_EQ(cell.result.avgPerRun.size(), 2u);
                std::lock_guard<std::mutex> lock(mutex);
                EXPECT_TRUE(
                    fired.emplace(std::pair{cell.config, cell.qps},
                                  cell.result)
                        .second)
                    << "cell reported twice: " << cell.config << " @ "
                    << cell.qps;
            });
        EXPECT_EQ(fired.size(), grid.cells.size()) << "width " << width;
        // What a cell reported is what the returned grid holds.
        for (const auto &[key, reported] : fired) {
            const StudyCell &cell = grid.at(key.first, key.second);
            EXPECT_EQ(reported.avgPerRun, cell.result.avgPerRun)
                << key.first << " @ " << key.second << " width " << width;
            EXPECT_EQ(reported.p99PerRun, cell.result.p99PerRun)
                << key.first << " @ " << key.second << " width " << width;
        }
    }
}

TEST(StudyParallel, MatchesPerCellRunMany)
{
    // A grid swept through the scheduler equals assembling the same
    // cells one runMany() call at a time.
    RunnerOptions opt;
    opt.runs = 3;
    opt.baseSeed = 9001;
    opt.parallelism = 4;
    const auto factory = quickFactory();
    const auto grid = sweep({"LP"}, {20e3, 50e3}, factory, opt);
    for (const StudyCell &cell : grid.cells) {
        const auto direct = runMany(factory(cell.config, cell.qps), opt);
        ASSERT_EQ(direct.runs.size(), cell.result.runs.size());
        for (std::size_t r = 0; r < direct.runs.size(); ++r) {
            EXPECT_EQ(direct.avgPerRun[r], cell.result.avgPerRun[r]);
            EXPECT_EQ(direct.p99PerRun[r], cell.result.p99PerRun[r]);
        }
    }
}

} // namespace
} // namespace core
} // namespace tpv
