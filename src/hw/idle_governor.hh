/**
 * @file
 * Idle-state governor, modelled on Linux's menu governor: predict how
 * long the core will stay idle from (i) the next armed timer and
 * (ii) a history of recent actual idle durations, then pick the
 * deepest C-state whose target residency fits the prediction.
 *
 * The interplay the paper exploits lives here: an LP client thread
 * arms its next-send timer ~1 ms out, so the governor predicts a long
 * idle and picks C6 — but the *response* interrupt arrives after only
 * tens of microseconds, forcing a C6 exit (up to 133 us) right on the
 * measurement path. The history term then drags predictions down,
 * which is why the LP client's overhead is a *mixture* of C-state
 * exits — the source of its high run-to-run variance (Figure 5a).
 */

#ifndef TPV_HW_IDLE_GOVERNOR_HH
#define TPV_HW_IDLE_GOVERNOR_HH

#include <array>
#include <cstddef>

#include "hw/cstate.hh"
#include "sim/time.hh"

namespace tpv {
namespace hw {

/**
 * Menu-style idle governor; one instance per core.
 */
class MenuGovernor
{
  public:
    explicit MenuGovernor(const CStateTable &table) : table_(&table) {}

    /**
     * Choose a C-state for an idle period starting now.
     * @param timerHint time until the next armed timer on this core,
     *        or kTimeNever when none is armed.
     */
    const CStateSpec &choose(Time timerHint);

    /** Feed back how long the core actually stayed idle. */
    void recordIdle(Time actualIdle);

    /** Prediction the last choose() used (for tests / introspection). */
    Time lastPrediction() const { return lastPrediction_; }

  private:
    /**
     * Robust typical-interval estimate from the history window, in
     * one pass. It returns exactly what typicalIntervalLoop() returns:
     * the loop's survivors are the k smallest values, whose sum is an
     * exact double while every value is a whole nanosecond below
     * 2^50, so only the pass test itself is rounded. The fast path
     * evaluates that test from sums and runs the loop whenever a test
     * lands within 1e-12 (relative) of a tie, far wider than either
     * side's rounding, or a value leaves the exact range. Debug builds
     * check every answer against the loop.
     */
    Time typicalInterval() const;

    /** The iterative drop-the-maximum estimate: the reference. */
    Time typicalIntervalLoop() const;

    static constexpr std::size_t kWindow = 8;
    const CStateTable *table_;
    std::array<Time, kWindow> history_{};
    std::size_t histCount_ = 0;
    std::size_t histNext_ = 0;
    Time lastPrediction_ = 0;
};

} // namespace hw
} // namespace tpv

#endif // TPV_HW_IDLE_GOVERNOR_HH
