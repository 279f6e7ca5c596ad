/**
 * @file
 * Timeline metrics: named probes sampled on a periodic simulated-time
 * tick and dumped as one CSV time series per run.
 *
 * A probe is a (name, sampling function) pair. One tick loop samples
 * every probe at the same simulated instants, so the CSV is a pure
 * function of simulated behaviour: same columns, same rows, same
 * bytes, run to run.
 */

#ifndef TPV_OBS_METRICS_HH
#define TPV_OBS_METRICS_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/time.hh"

namespace tpv {

class Simulator;

namespace obs {

/**
 * Per-run probe registry + sample store. Register probes, arm() before
 * the run starts, read the CSV after it ends.
 */
class MetricsRegistry
{
  public:
    using Probe = std::function<double()>;

    /** Register a probe: @p name becomes a CSV column (registration
     *  order = column order), @p fn the sampler. */
    void add(std::string name, Probe fn);

    /**
     * Schedule the first tick at @p period and keep ticking every
     * @p period until @p until. Call before the run starts.
     */
    void arm(Simulator &sim, Time period, Time until);

    std::size_t probeCount() const { return probes_.size(); }

    /** Rows sampled (ticks fired). */
    std::size_t ticks() const { return tickTimes_.size(); }

    /**
     * The deterministic time series: header "time_ns,<col>,..."
     * then one row per tick, values formatted "%.6g".
     */
    std::string csv() const;

  private:
    struct ProbeEntry
    {
        std::string name;
        Probe fn;
    };

    /** One tick: sample every probe, re-arm. */
    void tick(Simulator &sim, Time period, Time until);

    std::vector<ProbeEntry> probes_;
    /** probeCount() values per tick, appended tickwise. */
    std::vector<double> values_;
    std::vector<Time> tickTimes_;
    bool armed_ = false;
};

} // namespace obs
} // namespace tpv

#endif // TPV_OBS_METRICS_HH
