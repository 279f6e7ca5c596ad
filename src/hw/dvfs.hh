/**
 * @file
 * Per-core frequency domain: the CPUFreq driver + governor pair of
 * paper Section IV-C, plus turbo active-core bins.
 *
 * The behaviour that matters to the paper: under the powersave
 * governor, a core that has been idle for a while restarts at its
 * minimum frequency and takes a DVFS transition (~30 us, [I-DVFS])
 * to climb back — so the first microseconds of response processing
 * on an LP client run at 0.8/2.2 of nominal speed, inflating the
 * measured latency beyond the raw C-state exit.
 */

#ifndef TPV_HW_DVFS_HH
#define TPV_HW_DVFS_HH

#include <cstdint>
#include <functional>

#include "hw/config.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"

namespace tpv {
namespace hw {

/**
 * One frequency/voltage domain (per physical core on Skylake).
 */
class FreqDomain
{
  public:
    /**
     * @param activeCores the machine's busy-core count, read directly
     *        for the turbo bins; must outlive the domain.
     * @param onChange invoked after every frequency change so the core
     *        can rescale in-flight work.
     */
    FreqDomain(Simulator &sim, const HwConfig &cfg, const int &activeCores,
               std::function<void()> onChange);

    /** Current operating frequency. */
    double currentGhz() const { return currentGhz_; }

    /** Execution speed relative to nominal frequency. */
    double speedFactor() const { return currentGhz_ / cfg_->nominalGhz; }

    /**
     * Core finished a sleep of @p idleDuration and is running again.
     * Utilisation-driven governors (powersave, ondemand) pick the
     * wake frequency from the busy-fraction EWMA — a mostly idle LP
     * client core restarts near its minimum frequency — and schedule
     * the busy-ramp that lifts a *continuously* busy core to the ramp
     * target after the DVFS transition latency.
     */
    void onCoreWake(Time idleDuration);

    /**
     * Core went idle after @p busyDuration of work: update the
     * utilisation estimate and cancel any pending busy-ramp.
     */
    void onCoreIdle(Time busyDuration);

    /** Busy-fraction EWMA the wake frequency is derived from. */
    double utilization() const { return util_; }

    /**
     * The machine's active-core count changed: re-evaluate the turbo
     * bin for domains that follow it. Such a domain's frequency moves
     * only here and in onCoreWake(), and both set it to the current
     * bin, so it always sits at the current bin; Machine relies on that
     * to call this only when the bin changes.
     */
    void refreshTarget();

    /**
     * Whether domains of a machine configured as @p cfg track the
     * active-core turbo bin: the Performance governor with turbo on.
     * Every other domain ignores bin changes.
     */
    static bool followsTurboBin(const HwConfig &cfg);

    /** Number of frequency transitions performed. */
    std::uint64_t transitions() const { return transitions_; }

    /**
     * Hook invoked immediately *before* a frequency change commits —
     * used by the core's energy accounting to bill the elapsed
     * interval at the old power level.
     */
    void setPreChangeHook(std::function<void()> hook)
    {
        preChange_ = std::move(hook);
    }

    /** Highest frequency currently grantable (turbo bins). */
    double maxAvailableGhz() const;

    /**
     * Highest frequency grantable on a machine of @p cfg with
     * @p activeCores busy cores: the active-core turbo bin, or nominal
     * with turbo off.
     */
    static double turboBinGhz(const HwConfig &cfg, int activeCores);

    /**
     * Frequency a utilisation-driven ramp climbs to. Performance
     * claims the full turbo bin; powersave/ondemand settle at nominal
     * (intel_pstate's powersave energy-performance preference rarely
     * sustains turbo residency).
     */
    double rampTargetGhz() const;

  private:
    void setFreq(double ghz);
    void scheduleRamp(Time delay);

    /** Frequency a utilisation-driven governor grants on wake. */
    double utilFreqGhz() const;

    Simulator &sim_;
    const HwConfig *cfg_;
    const int *activeCores_;
    std::function<void()> onChange_;
    std::function<void()> preChange_;
    double currentGhz_;
    double util_ = 0.0;
    Time lastBusy_ = 0;
    std::uint64_t transitions_ = 0;
    EventHandle rampEv_{};
};

} // namespace hw
} // namespace tpv

#endif // TPV_HW_DVFS_HH
