/**
 * @file
 * Measurement collection: per-request end-to-end latencies plus the
 * send lateness that quantifies how far the generated workload
 * drifted from its schedule (paper Section II).
 */

#ifndef TPV_LOADGEN_RECORDER_HH
#define TPV_LOADGEN_RECORDER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hh"
#include "stats/descriptive.hh"

namespace tpv {
namespace loadgen {

/**
 * Collects one run's worth of measurements inside a [start, end)
 * window of simulated time.
 */
class LatencyRecorder
{
  public:
    /** Define the measurement window (absolute simulated times). */
    void setWindow(Time start, Time end);

    /**
     * Pre-size the sample vectors for an expected @p perSecond event
     * rate over a @p window of simulated time (plus headroom), so the
     * record path never reallocates mid-run.
     */
    void reserveFor(double perSecond, Time window);

    /** @return true when @p t falls inside the window. */
    bool inWindow(Time t) const { return t >= start_ && t < end_; }

    /**
     * Record a response latency for a request sent at @p sentAt; it
     * only counts if the send fell inside the window.
     */
    void recordLatency(Time sentAt, double usecLatency);

    /** Record how late a request left relative to its schedule. */
    void recordLateness(Time sentAt, double usecLate);

    /** Count every request handed to the network. */
    void countSent() { ++sent_; }

    /** Count every response that reached the generator. */
    void countReceived() { ++received_; }

    /** Recorded end-to-end latencies (us). */
    const std::vector<double> &latencies() const { return latencies_; }

    /** Recorded send lateness samples (us). */
    const std::vector<double> &lateness() const { return lateness_; }

    /** Summary of the latency samples. */
    stats::Summary latencySummary() const
    {
        return stats::Summary::of(latencies_);
    }

    /** Summary of the send lateness samples. */
    stats::Summary latenessSummary() const
    {
        return stats::Summary::of(lateness_);
    }

    /**
     * latencySummary() and latenessSummary() for the end of a run:
     * sorts both sample vectors in place instead of sorting a copy of
     * each, so summarising adds nothing to the run's peak memory (a
     * 500K QPS cell holds ~100K samples per vector). The summaries are
     * the same bits. Afterwards latencies() and lateness() are in
     * ascending order, not arrival order.
     * @return the latency and the lateness summary.
     */
    std::pair<stats::Summary, stats::Summary> summarizeInPlace();

    std::uint64_t sent() const { return sent_; }
    std::uint64_t received() const { return received_; }

  private:
    Time start_ = 0;
    Time end_ = kTimeNever;
    std::vector<double> latencies_;
    std::vector<double> lateness_;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
};

} // namespace loadgen
} // namespace tpv

#endif // TPV_LOADGEN_RECORDER_HH
