#include "loadgen/recorder.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tpv {
namespace loadgen {

void
LatencyRecorder::setWindow(Time start, Time end)
{
    TPV_ASSERT(start < end, "empty measurement window");
    start_ = start;
    end_ = end;
}

std::pair<stats::Summary, stats::Summary>
LatencyRecorder::summarizeInPlace()
{
    std::sort(latencies_.begin(), latencies_.end());
    std::sort(lateness_.begin(), lateness_.end());
    return {stats::Summary::ofSorted(latencies_),
            stats::Summary::ofSorted(lateness_)};
}

void
LatencyRecorder::reserveFor(double perSecond, Time window)
{
    if (perSecond <= 0 || window <= 0)
        return;
    // 25% headroom over the expectation: bursts (and non-stationary
    // profiles) overshoot the mean; one slightly generous block beats
    // a realloc + copy mid-measurement. Capped, because the estimate
    // can be far above what a run can physically record (an
    // overloaded service answers at its own rate, not the offered
    // one) and sweeps run many recorders concurrently —
    // beyond the cap a few amortised doublings are the lesser evil.
    constexpr std::size_t kMaxReserve = std::size_t(1) << 22;
    const auto expected = static_cast<std::size_t>(
        perSecond * toSec(window) * 1.25 + 64);
    const std::size_t n = std::min(expected, kMaxReserve);
    latencies_.reserve(n);
    lateness_.reserve(n);
    interarrivals_.reserve(n);
}

void
LatencyRecorder::recordLatency(Time sentAt, double usecLatency)
{
    if (inWindow(sentAt))
        latencies_.push_back(usecLatency);
}

void
LatencyRecorder::recordLateness(Time sentAt, double usecLate)
{
    if (inWindow(sentAt))
        lateness_.push_back(usecLate);
}

void
LatencyRecorder::recordInterarrival(Time sentAt, double usecGap)
{
    if (inWindow(sentAt))
        interarrivals_.push_back(usecGap);
}

} // namespace loadgen
} // namespace tpv
