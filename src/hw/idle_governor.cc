#include "hw/idle_governor.hh"

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"

namespace tpv {
namespace hw {

namespace {

/**
 * History values below 2^50 ns (~13 days): any sum of up to eight of
 * them is below 2^53, so it is an exact double in any order.
 */
constexpr Time kExactBound = Time{1} << 50;

/**
 * Relative band around the pass test in which the fast path defers to
 * the loop. Both evaluate the test in doubles within ~15 ulps (~2e-15)
 * of the exact value, so outside this band they cannot disagree.
 */
constexpr double kTieMargin = 1e-12;

enum class Verdict { Pass, Fail, Tie };

/**
 * The loop's test `var <= (avg/3)^2` over k values with sum @p s and
 * sum of squares @p q, which in exact arithmetic is 9kQ <= 10S^2.
 */
Verdict
judge(double k, double s, double q)
{
    if (q == 0)
        return Verdict::Pass; // all zeros: the loop's var 0 <= 0 is exact
    const double lhs = 9.0 * k * q;
    const double rhs = 10.0 * s * s;
    const double slack = kTieMargin * rhs;
    if (lhs < rhs - slack)
        return Verdict::Pass;
    if (lhs > rhs + slack)
        return Verdict::Fail;
    return Verdict::Tie;
}

/** Branchless compare-exchange: v[i] <= v[j] afterwards. */
inline void
sort2(double *v, int i, int j)
{
    const double lo = std::min(v[i], v[j]);
    const double hi = std::max(v[i], v[j]);
    v[i] = lo;
    v[j] = hi;
}

/** Batcher's odd-even merge network for eight inputs: 19 comparators. */
inline void
sort8(double *v)
{
    sort2(v, 0, 1); sort2(v, 2, 3); sort2(v, 4, 5); sort2(v, 6, 7);
    sort2(v, 0, 2); sort2(v, 1, 3); sort2(v, 4, 6); sort2(v, 5, 7);
    sort2(v, 1, 2); sort2(v, 5, 6);
    sort2(v, 0, 4); sort2(v, 1, 5); sort2(v, 2, 6); sort2(v, 3, 7);
    sort2(v, 2, 4); sort2(v, 3, 5);
    sort2(v, 1, 2); sort2(v, 3, 4); sort2(v, 5, 6);
}

} // namespace

const CStateSpec &
MenuGovernor::choose(Time timerHint)
{
    Time predicted = timerHint;
    if (histCount_ > 0)
        predicted = std::min(predicted, typicalInterval());
    if (predicted == kTimeNever)
        predicted = 0; // no information at all: stay shallow
    lastPrediction_ = predicted;
    return table_->deepestFor(predicted);
}

void
MenuGovernor::recordIdle(Time actualIdle)
{
    history_[histNext_] = actualIdle;
    histNext_ = (histNext_ + 1) % kWindow;
    histCount_ = std::min(histCount_ + 1, kWindow);
}

Time
MenuGovernor::typicalInterval() const
{
    // Single-pass equivalent of typicalIntervalLoop(). Dropping the
    // maximum pass after pass leaves the k smallest values, and equal
    // values are interchangeable in their sum S and sum of squares Q,
    // so the loop returns S/k for the largest k whose k smallest
    // values pass 9kQ <= 10S^2 (or the minimum when no k >= 2 does).
    // Whole nanoseconds below kExactBound make every S exact, hence
    // S/k the very double the loop divides; Q and the test are
    // rounded on both sides but agree outside kTieMargin. Anything
    // else (a near tie, a value outside the exact range) runs the loop.
    const std::size_t n = histCount_;
    std::array<double, kWindow> v{};
    double s = 0;
    double q = 0;
    std::uint64_t bits = 0; // >= 2^50 iff some value is negative or >= 2^50
    for (std::size_t i = 0; i < n; ++i) {
        const Time t = history_[i];
        bits |= static_cast<std::uint64_t>(t);
        v[i] = static_cast<double>(t);
        s += v[i];
        q += v[i] * v[i];
    }
    if (bits >= static_cast<std::uint64_t>(kExactBound))
        return typicalIntervalLoop();

    Time result = 0;
    Verdict verdict = judge(static_cast<double>(n), s, q);
    if (verdict == Verdict::Pass) {
        result = static_cast<Time>(s / static_cast<double>(n));
    } else if (verdict == Verdict::Tie) {
        return typicalIntervalLoop();
    } else {
        for (std::size_t i = n; i < kWindow; ++i)
            v[i] = static_cast<double>(kExactBound); // sorts last
        sort8(v.data());
        std::array<double, kWindow> ps{};
        std::array<double, kWindow> pq{};
        double cs = 0;
        double cq = 0;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            cs += v[i];
            cq += v[i] * v[i];
            ps[i] = cs;
            pq[i] = cq;
        }
        result = static_cast<Time>(v[0]);
        for (std::size_t k = n - 1; k >= 2; --k) {
            verdict = judge(static_cast<double>(k), ps[k - 1], pq[k - 1]);
            if (verdict == Verdict::Tie)
                return typicalIntervalLoop();
            if (verdict == Verdict::Pass) {
                result = static_cast<Time>(ps[k - 1] /
                                           static_cast<double>(k));
                break;
            }
        }
    }
#ifndef NDEBUG
    TPV_ASSERT(result == typicalIntervalLoop(),
               "menu governor fast path disagrees with the loop");
#endif
    return result;
}

Time
MenuGovernor::typicalIntervalLoop() const
{
    // Linux menu's get_typical_interval(): iteratively discard
    // intervals more than one standard deviation above the mean until
    // the remaining set is consistent. With the bimodal histories a
    // request/response loop produces (short response waits
    // interleaved with long inter-send gaps), this converges on the
    // *short* cluster — the governor hedges toward shallow states
    // when interrupts keep cutting sleeps short.
    std::array<double, kWindow> vals{};
    std::size_t n = histCount_;
    for (std::size_t i = 0; i < n; ++i)
        vals[i] = static_cast<double>(history_[i]);

    for (;;) {
        double sum = 0;
        for (std::size_t i = 0; i < n; ++i)
            sum += vals[i];
        const double avg = sum / static_cast<double>(n ? n : 1);
        if (n < 2)
            return static_cast<Time>(avg);
        // One pass: the variance (added in index order) and the
        // first-index maximum, in case the set is rejected.
        double var = 0;
        std::size_t maxIdx = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const double d = vals[i] - avg;
            var += d * d;
            if (vals[i] > vals[maxIdx])
                maxIdx = i;
        }
        var /= static_cast<double>(n);
        // Consistent enough: stddev within a third of the average
        // (menu uses avg > 6 * stddev^2 heuristics; this captures the
        // same "accept when unimodal" intent).
        if (var <= (avg / 3.0) * (avg / 3.0))
            return static_cast<Time>(avg);
        // Drop the largest value and retry.
        vals[maxIdx] = vals[n - 1];
        --n;
    }
}

} // namespace hw
} // namespace tpv
