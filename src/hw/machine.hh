/**
 * @file
 * A machine: a socket's worth of cores plus the package-level pieces
 * (uncore frequency, tick source) and IRQ delivery.
 */

#ifndef TPV_HW_MACHINE_HH
#define TPV_HW_MACHINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/core.hh"
#include "hw/cstate.hh"
#include "sim/simulator.hh"

namespace tpv {
namespace hw {

/**
 * Execution-speed multiplier applied to every hardware thread of a
 * frozen machine. Positive (the speed math divides by it) but small
 * enough that a pause window sees effectively zero progress: 1e-9
 * nominal speed means one nanosecond of work per simulated second.
 */
inline constexpr double kFrozenSpeedFactor = 1e-9;

/** Aggregated machine counters for run reports. */
struct MachineStats
{
    std::uint64_t wakes = 0;
    Time exitLatencyPaid = 0;
    std::uint64_t freqTransitions = 0;
    std::uint64_t irqsDelivered = 0;
    std::uint64_t uncoreWakePenalties = 0;
    /** Total core energy consumed so far (joules). */
    double energyJoules = 0;
};

/**
 * One machine of the test cluster (Figure 1): cores, uncore, kernel
 * timer. Network devices talk to it through deliverIrq().
 */
class Machine
{
  public:
    /**
     * Build a machine and settle every core into its idle state.
     * @param cfg validated hardware configuration (Table II presets
     *        or custom).
     * @param seed non-zero enables the per-instance hardware
     *        variation draw (exitLatencyJitter); zero keeps latencies
     *        at their nominal table values.
     */
    Machine(Simulator &sim, const HwConfig &cfg,
            std::string name = "machine", std::uint64_t seed = 0);

    /** Exit-latency scale drawn for this instance (1.0 when seed=0). */
    double exitScale() const { return exitScale_; }
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Physical core @p i. */
    Core &core(std::size_t i);

    /** Number of physical cores. */
    std::size_t coreCount() const { return cores_.size(); }

    /**
     * Hardware thread by global index. With SMT, threads are numbered
     * like Linux enumerates siblings: 0..cores-1 are thread 0 of each
     * core, cores..2*cores-1 are the siblings.
     */
    HwThread &thread(std::size_t globalIdx);

    /** Total hardware threads. */
    std::size_t threadCount() const;

    /**
     * Deliver a device interrupt: optional uncore wake penalty, then
     * @p irqWork of kernel time on the target thread, then
     * @p handler. This is how NIC receive processing lands on a core.
     */
    void deliverIrq(std::size_t threadIdx, Time irqWork,
                    HwThread::Callback handler);

    /** Busy physical cores (for turbo bins). */
    int activeCores() const { return activeCores_; }

    /**
     * Stop-the-world pause control (GC pauses, SMIs): while frozen,
     * every hardware thread's execution speed drops to
     * kFrozenSpeedFactor — in-flight work stalls, queued work waits,
     * and arriving IRQs enqueue but make no progress. Unfreezing
     * re-clocks all in-flight work so it resumes where it stopped.
     * Timer events (C-state exits, armed sleeps) still fire on time:
     * the freeze models the package's execution stalling, not the
     * platform clock.
     */
    void setFrozen(bool frozen);

    /** True while a stop-the-world pause is in effect. */
    bool frozen() const { return frozen_; }

    /** The machine's configuration. */
    const HwConfig &config() const { return cfg_; }

    /** The machine's display name. */
    const std::string &name() const { return name_; }

    /** Aggregated counters. */
    MachineStats stats() const;

  private:
    friend class Core;

    /**
     * Core active-count bookkeeping. Cores that follow the turbo bin
     * (FreqDomain::followsTurboBin) always sit at the current bin, so
     * they are refreshed only when the count moves the bin.
     */
    void onCoreActiveChanged(int delta);

    /** Uncore DVFS penalty for I/O hitting an idle package. */
    Time uncorePenalty();

    static double drawExitScale(const HwConfig &cfg, std::uint64_t seed);

    Simulator &sim_;
    HwConfig cfg_;
    double exitScale_;
    CStateTable table_;
    std::string name_;
    std::vector<std::unique_ptr<Core>> cores_;
    int activeCores_ = 0;
    /** Turbo bin last pushed to the cores; no bin is negative. */
    double pushedBinGhz_ = -1.0;
    bool frozen_ = false;
    Time lastPackageActivity_ = 0;
    std::uint64_t irqsDelivered_ = 0;
    std::uint64_t uncoreWakePenalties_ = 0;
};

} // namespace hw
} // namespace tpv

#endif // TPV_HW_MACHINE_HH
