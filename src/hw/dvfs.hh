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

#include "hw/config.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"

namespace tpv {
namespace hw {

class Core;

/**
 * One frequency/voltage domain (per physical core on Skylake).
 */
class FreqDomain
{
  public:
    /**
     * @param activeCores the machine's busy-core count, read directly
     *        for the turbo bins; must outlive the domain.
     * @param owner the core this domain clocks, or null for a
     *        standalone domain. Every frequency change calls the owner
     *        directly: Core::accrueEnergy() just before it commits, so
     *        the elapsed interval is billed at the old power level,
     *        and Core::refreshSpeeds() just after, so the running
     *        threads' in-flight work re-clocks to the new frequency.
     */
    FreqDomain(Simulator &sim, const HwConfig &cfg, const int &activeCores,
               Core *owner = nullptr);

    /** Current operating frequency. */
    double currentGhz() const { return currentGhz_; }

    /** Execution speed relative to nominal frequency. */
    double speedFactor() const { return currentGhz_ / cfg_->nominalGhz; }

    /**
     * Core finished a sleep of @p idleDuration and is running again.
     * The utilisation-driven powersave governor picks the wake
     * frequency from the busy-fraction EWMA — a mostly idle LP client
     * core restarts near its minimum frequency — and schedules the
     * busy-ramp that lifts a *continuously* busy core to the ramp
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
     * The machine's turbo bin moved to @p binGhz (turboBinGhz() of the
     * new active-core count): move there. Only for domains that follow
     * the bin (followsTurboBin()). Such a domain's frequency moves only
     * here and in onCoreWake(), and both set it to the current bin, so
     * it always sits at the current bin; Machine relies on that to call
     * this only when the bin changes.
     */
    void onTurboBinChanged(double binGhz) { setFreq(binGhz); }

    /**
     * Whether domains of a machine configured as @p cfg track the
     * active-core turbo bin: the Performance governor with turbo on.
     * Every other domain ignores bin changes.
     */
    static bool followsTurboBin(const HwConfig &cfg);

    /** Number of frequency transitions performed. */
    std::uint64_t transitions() const { return transitions_; }

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
     * claims the full turbo bin; powersave settles at nominal
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
    Core *owner_;
    double currentGhz_;
    double util_ = 0.0;
    Time lastBusy_ = 0;
    std::uint64_t transitions_ = 0;
    EventHandle rampEv_{};
};

} // namespace hw
} // namespace tpv

#endif // TPV_HW_DVFS_HH
