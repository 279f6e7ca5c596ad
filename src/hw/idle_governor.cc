#include "hw/idle_governor.hh"

#include <algorithm>

namespace tpv {
namespace hw {

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
