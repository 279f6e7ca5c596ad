/** @file Tests for the C-state table and menu governor. */

#include "hw/cstate.hh"
#include "hw/idle_governor.hh"
#include "sim/random.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>

namespace tpv {
namespace hw {
namespace {

CStateTable
lpTable()
{
    return CStateTable(HwConfig::clientLP());
}

TEST(CStateTable, EnabledSubsetOnly)
{
    CStateTable t(HwConfig::serverBaseline()); // C0 + C1
    EXPECT_EQ(t.states().size(), 2u);
    EXPECT_EQ(t.deepest().state, CState::C1);
}

TEST(CStateTable, IdlePollKeepsOnlyC0)
{
    CStateTable t(HwConfig::clientHP());
    EXPECT_EQ(t.states().size(), 1u);
    EXPECT_EQ(t.deepest().state, CState::C0);
    EXPECT_EQ(t.deepestFor(seconds(10)).state, CState::C0);
}

TEST(CStateTable, DeepestForRespectsResidency)
{
    CStateTable t = lpTable();
    EXPECT_EQ(t.deepestFor(0).state, CState::C0);
    EXPECT_EQ(t.deepestFor(usec(2)).state, CState::C1);
    EXPECT_EQ(t.deepestFor(usec(19)).state, CState::C1);
    EXPECT_EQ(t.deepestFor(usec(20)).state, CState::C1E);
    EXPECT_EQ(t.deepestFor(usec(599)).state, CState::C1E);
    EXPECT_EQ(t.deepestFor(usec(600)).state, CState::C6);
    EXPECT_EQ(t.deepestFor(seconds(1)).state, CState::C6);
}

TEST(CStateTable, ExitLatencyLookup)
{
    CStateTable t = lpTable();
    EXPECT_EQ(t.exitLatency(CState::C0), 0);
    EXPECT_EQ(t.exitLatency(CState::C1), usec(2));
    EXPECT_EQ(t.exitLatency(CState::C1E), usec(10));
    EXPECT_EQ(t.exitLatency(CState::C6), usec(133));
}

TEST(MenuGovernor, NoHistoryUsesTimerHint)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    EXPECT_EQ(g.choose(msec(1)).state, CState::C6);
    EXPECT_EQ(g.lastPrediction(), msec(1));
}

TEST(MenuGovernor, NoHintNoHistoryStaysShallow)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    EXPECT_EQ(g.choose(kTimeNever).state, CState::C0);
}

TEST(MenuGovernor, HistoryCapsTimerHint)
{
    // The paper's LP-client pattern: the next-send timer is ~1ms out,
    // but responses keep arriving after ~40us. After a few interrupted
    // idles the governor must stop choosing C6.
    CStateTable t = lpTable();
    MenuGovernor g(t);
    EXPECT_EQ(g.choose(msec(1)).state, CState::C6);
    for (int i = 0; i < 8; ++i)
        g.recordIdle(usec(40));
    EXPECT_EQ(g.choose(msec(1)).state, CState::C1E);
    EXPECT_EQ(g.lastPrediction(), usec(40));
}

TEST(MenuGovernor, LongIdleHistoryAllowsDeepState)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    for (int i = 0; i < 8; ++i)
        g.recordIdle(msec(2));
    EXPECT_EQ(g.choose(msec(5)).state, CState::C6);
}

TEST(MenuGovernor, MedianIsRobustToOneOutlier)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    for (int i = 0; i < 7; ++i)
        g.recordIdle(usec(30));
    g.recordIdle(seconds(1)); // one long gap must not flip the estimate
    EXPECT_EQ(g.choose(kTimeNever).state, CState::C1E);
}

TEST(MenuGovernor, TimerHintStillCapsAfterHistory)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    for (int i = 0; i < 8; ++i)
        g.recordIdle(msec(10));
    // History says "long", but a timer 5us out caps the prediction.
    EXPECT_EQ(g.choose(usec(5)).state, CState::C1);
}

TEST(MenuGovernor, MixedHistoryTracksTypicalInterval)
{
    CStateTable t = lpTable();
    MenuGovernor g(t);
    // Bimodal history (short response waits interleaved with longer
    // inter-send gaps): the outlier-discarding estimator converges on
    // the short cluster, hedging away from the deepest state — the
    // behaviour of Linux menu's get_typical_interval().
    for (int i = 0; i < 4; ++i) {
        g.recordIdle(usec(40));
        g.recordIdle(usec(500));
    }
    auto &chosen = g.choose(msec(1));
    EXPECT_EQ(chosen.state, CState::C1E);
    EXPECT_EQ(g.lastPrediction(), usec(40));
}

/**
 * The menu governor as it was before typicalInterval() became one
 * fused loop per pass: the three-loop estimator (sum, variance, max
 * scan), kept verbatim as the reference the fused one must match bit
 * for bit.
 */
class ReferenceMenuGovernor
{
  public:
    explicit ReferenceMenuGovernor(const CStateTable &table) : table_(&table)
    {
    }

    const CStateSpec &
    choose(Time timerHint)
    {
        Time predicted = timerHint;
        if (histCount_ > 0)
            predicted = std::min(predicted, typicalInterval());
        if (predicted == kTimeNever)
            predicted = 0;
        lastPrediction_ = predicted;
        return table_->deepestFor(predicted);
    }

    void
    recordIdle(Time actualIdle)
    {
        history_[histNext_] = actualIdle;
        histNext_ = (histNext_ + 1) % kWindow;
        histCount_ = std::min(histCount_ + 1, kWindow);
    }

    Time lastPrediction() const { return lastPrediction_; }

  private:
    Time
    typicalInterval() const
    {
        std::array<double, kWindow> vals{};
        std::size_t n = histCount_;
        for (std::size_t i = 0; i < n; ++i)
            vals[i] = static_cast<double>(history_[i]);

        for (int pass = 0; pass < 8 && n >= 2; ++pass) {
            double sum = 0;
            for (std::size_t i = 0; i < n; ++i)
                sum += vals[i];
            const double avg = sum / static_cast<double>(n);
            double var = 0;
            for (std::size_t i = 0; i < n; ++i)
                var += (vals[i] - avg) * (vals[i] - avg);
            var /= static_cast<double>(n);
            if (var <= (avg / 3.0) * (avg / 3.0))
                return static_cast<Time>(avg);
            std::size_t maxIdx = 0;
            for (std::size_t i = 1; i < n; ++i) {
                if (vals[i] > vals[maxIdx])
                    maxIdx = i;
            }
            vals[maxIdx] = vals[n - 1];
            --n;
        }
        double sum = 0;
        for (std::size_t i = 0; i < n; ++i)
            sum += vals[i];
        return static_cast<Time>(sum / static_cast<double>(n ? n : 1));
    }

    static constexpr std::size_t kWindow = 8;
    const CStateTable *table_;
    std::array<Time, kWindow> history_{};
    std::size_t histCount_ = 0;
    std::size_t histNext_ = 0;
    Time lastPrediction_ = 0;
};

/** One idle duration of history shape @p shape. */
Time
drawIdle(Rng &rng, int shape)
{
    switch (shape) {
      case 0: // bimodal: response waits vs inter-send gaps
        return (rng.chance(0.5) ? usec(40) : usec(500)) +
               rng.uniformInt(-usec(5), usec(5));
      case 1: // short cluster with the odd 1 s outlier
        return rng.chance(0.1) ? seconds(1)
                               : rng.uniformInt(usec(20), usec(60));
      case 2: // at or above 2^50 ns: window sums pass 2^53
        return (Time{1} << 50) + rng.uniformInt(0, Time{1} << 52);
      case 3: // huge values mixed with ordinary ones
        return rng.chance(0.5) ? (Time{1} << 50) + rng.uniformInt(0, 1000)
                               : rng.uniformInt(0, msec(5));
      default: // log-uniform from 1 ns to ~1 s, exact repeats included
        return rng.chance(0.2)
                   ? usec(100)
                   : static_cast<Time>(std::exp(rng.uniform(0.0, 20.7)));
    }
}

TEST(MenuGovernor, FusedEstimatorMatchesThreeLoopReference)
{
    // >= 100K seeded histories: fresh governors fed 1..20 idles (1-7
    // is a partial window; beyond 8 the ring wraps), then one choose()
    // under a random or absent timer hint. The fused estimator must
    // agree with the reference on the state and the exact prediction.
    CStateTable t = lpTable();
    Rng rng(20240917);
    std::set<CState> statesSeen;
    int partialWindows = 0;
    for (int trial = 0; trial < 120000; ++trial) {
        MenuGovernor g(t);
        ReferenceMenuGovernor ref(t);
        const int shape = static_cast<int>(rng.uniformInt(0, 4));
        const int entries = static_cast<int>(rng.uniformInt(1, 20));
        partialWindows += entries < 8;
        for (int i = 0; i < entries; ++i) {
            const Time idle = drawIdle(rng, shape);
            g.recordIdle(idle);
            ref.recordIdle(idle);
        }
        const Time hint = rng.chance(0.3) ? kTimeNever
                                          : rng.uniformInt(0, seconds(2));
        const CState got = g.choose(hint).state;
        const CState want = ref.choose(hint).state;
        ASSERT_EQ(got, want) << "trial " << trial << " shape " << shape;
        ASSERT_EQ(g.lastPrediction(), ref.lastPrediction())
            << "trial " << trial << " shape " << shape;
        statesSeen.insert(got);
    }
    EXPECT_GT(partialWindows, 20000);
    EXPECT_EQ(statesSeen.size(), t.states().size()); // every state reached
}

TEST(MenuGovernor, FusedEstimatorMatchesReferenceOverLongSequences)
{
    // One governor per seed living through a long idle sequence with a
    // choose() before every recordIdle(), as a core uses it, so every
    // ring rotation is exercised.
    CStateTable t = lpTable();
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        MenuGovernor g(t);
        ReferenceMenuGovernor ref(t);
        for (int step = 0; step < 2000; ++step) {
            const Time hint = rng.chance(0.2) ? kTimeNever
                                              : rng.uniformInt(0, msec(2));
            ASSERT_EQ(g.choose(hint).state, ref.choose(hint).state)
                << "seed " << seed << " step " << step;
            ASSERT_EQ(g.lastPrediction(), ref.lastPrediction())
                << "seed " << seed << " step " << step;
            const Time idle =
                drawIdle(rng, static_cast<int>(rng.uniformInt(0, 4)));
            g.recordIdle(idle);
            ref.recordIdle(idle);
        }
    }
}

} // namespace
} // namespace hw
} // namespace tpv
