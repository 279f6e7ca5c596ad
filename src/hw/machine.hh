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
#include <utility>
#include <vector>

#include "hw/core.hh"
#include "hw/cstate.hh"
#include "sim/simulator.hh"

namespace tpv {
namespace hw {

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
    std::size_t threadCount() const { return threads_.size(); }

    /**
     * Deliver a device interrupt: optional uncore wake penalty, then
     * @p irqWork of kernel time on the target thread, then
     * @p handler. This is how NIC receive processing lands on a core.
     */
    template <typename F>
    void
    deliverIrq(std::size_t threadIdx, Time irqWork, F &&handler)
    {
        ++irqsDelivered_;
        const Time penalty = uncorePenalty();
        if (penalty == 0) {
            // A callable is built straight into its run-queue slot
            // (HwThread::submit's in-place overload).
            thread(threadIdx).submit(irqWork, std::forward<F>(handler));
            return;
        }
        deliverIrqLate(threadIdx, irqWork, penalty,
                       HwThread::Callback(std::forward<F>(handler)));
    }

    /** Busy physical cores (for turbo bins). */
    int activeCores() const { return activeCores_; }

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
     * they are visited only when the count moves the bin, and each
     * domain is handed the new bin instead of re-deriving it.
     */
    void onCoreActiveChanged(int delta);

    /** Uncore DVFS penalty for I/O hitting an idle package. */
    Time uncorePenalty();

    /** deliverIrq() after an uncore wake of @p penalty. */
    void deliverIrqLate(std::size_t threadIdx, Time irqWork, Time penalty,
                        HwThread::Callback &&handler);

    static double drawExitScale(const HwConfig &cfg, std::uint64_t seed);

    Simulator &sim_;
    HwConfig cfg_;
    double exitScale_;
    CStateTable table_;
    std::string name_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** Every hardware thread in global (Linux sibling) order. */
    std::vector<HwThread *> threads_;
    int activeCores_ = 0;
    /** Turbo bin last pushed to the cores; no bin is negative. */
    double pushedBinGhz_ = -1.0;
    Time lastPackageActivity_ = 0;
    std::uint64_t irqsDelivered_ = 0;
    std::uint64_t uncoreWakePenalties_ = 0;
};

} // namespace hw
} // namespace tpv

#endif // TPV_HW_MACHINE_HH
