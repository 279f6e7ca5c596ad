/** @file Tests for the C-state table and menu governor. */

#include "hw/cstate.hh"
#include "hw/idle_governor.hh"
#include "sim/random.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

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

/**
 * Feed @p window to a fresh governor and the reference, then compare
 * one choose() with no timer hint: the prediction is the estimate.
 */
void
expectSameEstimate(const CStateTable &t, const std::vector<Time> &window)
{
    MenuGovernor g(t);
    ReferenceMenuGovernor ref(t);
    for (Time idle : window) {
        g.recordIdle(idle);
        ref.recordIdle(idle);
    }
    ASSERT_EQ(g.choose(kTimeNever).state, ref.choose(kTimeNever).state);
    ASSERT_EQ(g.lastPrediction(), ref.lastPrediction())
        << "window of " << window.size() << " starting " << window[0];
}

TEST(MenuGovernor, FastPathMatchesReferenceAtNearTies)
{
    // The fast path decides the loop's pass test (9kQ <= 10S^2 for
    // the k smallest values) from sums, and runs the loop itself when
    // a test lands within a 1e-12 relative band of the tie. Each
    // window here has k values whose last one solves 9kQ = 10S^2,
    // rounded and offset by -2..+2 ns, plus up to 8 - k larger values
    // the loop drops first. At small magnitudes the offsets sit
    // outside the band (the fast path decides); near 2^49 they sit
    // inside it (the loop decides); offset 0 on an integer root is an
    // exact tie ({a, 2a} is one for k = 2).
    CStateTable t = lpTable();
    Rng rng(20261017);
    int windows = 0;
    while (windows < 60000) {
        const auto k = static_cast<int>(rng.uniformInt(2, 8));
        const double scale =
            std::pow(10.0, rng.uniform(0.0, std::log10(0x1p48)));
        std::vector<Time> w;
        long double s = 0;
        long double q = 0;
        for (int i = 0; i + 1 < k; ++i) {
            const Time x = std::max<Time>(
                0, static_cast<Time>(scale * rng.uniform(0.5, 1.5)));
            w.push_back(x);
            s += x;
            q += static_cast<long double>(x) * x;
        }
        // (9k - 10) x^2 - 20 S x + (9kQ - 10 S^2) = 0.
        const long double a = 9.0L * k - 10.0L;
        const long double disc =
            36.0L * k * (10.0L * s * s - a * q);
        if (disc < 0)
            continue; // no tie reachable from these k - 1 values
        const bool bigRoot = rng.chance(0.5);
        const long double root =
            (20.0L * s + (bigRoot ? 1 : -1) * std::sqrt(disc)) / (2 * a);
        const Time x = static_cast<Time>(std::llround(root)) +
                       rng.uniformInt(-2, 2);
        if (x < 0)
            continue;
        w.push_back(x);
        const Time top = *std::max_element(w.begin(), w.end());
        const auto extra = top < (Time{1} << 47)
                               ? static_cast<int>(rng.uniformInt(0, 8 - k))
                               : 0;
        for (int i = 0; i < extra; ++i)
            w.push_back(top * 4 + rng.uniformInt(0, top + 1));
        for (std::size_t i = w.size(); i > 1; --i) {
            const auto j = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
            std::swap(w[i - 1], w[j]);
        }
        ASSERT_NO_FATAL_FAILURE(expectSameEstimate(t, w));
        ++windows;
    }

    for (std::size_t n = 1; n <= 8; ++n) {
        // All-zero windows (an exact 0 <= 0 pass), alone and under
        // larger values the loop drops.
        ASSERT_NO_FATAL_FAILURE(
            expectSameEstimate(t, std::vector<Time>(n, 0)));
        std::vector<Time> w(n, 0);
        w.back() = usec(500);
        ASSERT_NO_FATAL_FAILURE(expectSameEstimate(t, w));
        // One value at or past 2^50: sums leave the exact range.
        w.assign(n, usec(40));
        w[n / 2] = (Time{1} << 50) + static_cast<Time>(n);
        ASSERT_NO_FATAL_FAILURE(expectSameEstimate(t, w));
        w[n / 2] = Time{1} << 50;
        ASSERT_NO_FATAL_FAILURE(expectSameEstimate(t, w));
    }
}

} // namespace
} // namespace hw
} // namespace tpv
