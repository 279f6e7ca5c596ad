/**
 * @file
 * Core and hardware-thread execution model.
 *
 * A Core owns one or two HwThreads (SMT), a frequency domain, and an
 * idle-state machine driven by the menu governor. Work is submitted
 * to a thread as a *nominal* duration (the time it would take at
 * nominal frequency with the core to itself); actual progress scales
 * with the core's current speed factor:
 *
 *     speed = (currentGhz / nominalGhz) * (sibling busy ? smtThroughput : 1)
 *
 * Speed changes (DVFS ramps, sibling start/stop) re-clock in-flight
 * work, which is how C-state exits, powersave frequency dips, and SMT
 * contention all end up inside measured latencies — the paper's
 * central mechanism.
 */

#ifndef TPV_HW_CORE_HH
#define TPV_HW_CORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "hw/cstate.hh"
#include "hw/dvfs.hh"
#include "hw/idle_governor.hh"
#include "sim/fixed_containers.hh"
#include "sim/inline_function.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"

namespace tpv {
namespace hw {

class Core;
class Machine;

/**
 * One hardware thread: a FIFO run queue of variable-speed tasks.
 */
class HwThread
{
  public:
    /**
     * Task-completion callbacks ride the run queue inline. The
     * 80-byte budget fits a full net::Message plus an owner pointer
     * (the server dispatch path captures exactly that); bigger
     * captures must shrink — capture the fields actually used, not
     * the whole payload (see sim/inline_function.hh).
     */
    using Callback = InplaceCallback<80>;

    /** Fire-time dispatch-work thunk for sleepUntil(). */
    using DispatchFn = InplaceFunction<Time, 24>;

    /**
     * Start-time admission check for guarded submissions: evaluated
     * at the instant the task reaches the head of the run queue and
     * would begin execution. Returning false abandons the task —
     * no service work is spent and the completion callback never
     * fires. This is the mechanism behind tied requests ("cancel the
     * loser before it runs"): the twin that dequeues first claims the
     * request, the other's guard sees the claim and aborts.
     */
    using Guard = InplaceFunction<bool, 24>;

    HwThread(Simulator &sim, Core &core, int idx);
    HwThread(const HwThread &) = delete;
    HwThread &operator=(const HwThread &) = delete;

    /**
     * Enqueue @p nominalWork of CPU work; @p done fires at completion.
     * Wakes the core if it is sleeping (paying the C-state exit).
     * Zero-work submissions complete after the core is awake and the
     * task reaches the head of the queue.
     */
    void submit(Time nominalWork, Callback done);

    /**
     * Guarded submission: like submit(), but @p guard is consulted
     * when the task is about to start running. A false return drops
     * the task (its completion callback is discarded unfired).
     */
    void submitGuarded(Time nominalWork, Callback done, Guard guard);

    /**
     * Timer-armed sleep: at absolute time @p when, run
     * @p dispatchWork (e.g. the kernel timer softirq + event-loop
     * dispatch) and then invoke @p fn. The armed timer is visible to
     * the menu governor as a wake-up hint, exactly like a real
     * timerfd/epoll timeout.
     */
    void sleepUntil(Time when, Time dispatchWork, Callback fn);

    /**
     * Variant whose dispatch work is computed *at fire time* — lets
     * an event loop charge the full wake path only when it was
     * actually blocked (epoll batching: events picked up while the
     * loop is already running skip the IRQ + context switch).
     */
    void sleepUntil(Time when, DispatchFn dispatchWork, Callback fn);

    /** True while a task occupies the pipeline. */
    bool running() const { return running_; }

    /** True if running or queued work exists (or pinned busy). */
    bool busy() const { return running_ || !queue_.empty() || alwaysBusy_; }

    /**
     * Pin the thread as permanently busy: a time-insensitive
     * (busy-wait) workload generator spins here, so its core never
     * enters a C-state and frequency governors always see 100%
     * utilisation. Submitted tasks still run normally — the poll loop
     * "yields" to them, which is a faithful first-order model of a
     * polling event loop.
     */
    void setAlwaysBusy(bool v) { alwaysBusy_ = v; }

    /** @return true when pinned busy by setAlwaysBusy(). */
    bool alwaysBusy() const { return alwaysBusy_; }

    /** Queue depth excluding the in-flight task. */
    std::size_t queued() const { return queue_.size(); }

    /** Owning core. */
    Core &core() { return core_; }

    /** Thread index within the core (0 or 1). */
    int index() const { return idx_; }

    /** Completed task count. */
    std::uint64_t tasksCompleted() const { return tasksCompleted_; }

    /** Total nominal work completed. */
    Time workCompleted() const { return workCompleted_; }

  private:
    friend class Core;

    /** Task::guard value meaning "no admission check". */
    static constexpr std::uint32_t kNoGuard = UINT32_MAX;

    struct Task
    {
        double remaining = 0; // nominal ns
        Callback done;
        /**
         * Slot of the start-time admission check in guards_, or
         * kNoGuard. Out-of-line so the (rare) guarded submission
         * does not widen every run-queue slot by a full inline
         * callable — the unguarded hot path pays one u32.
         */
        std::uint32_t guard = kNoGuard;
    };

    /** One pending sleepUntil(), parked until its timer fires. */
    struct Sleep
    {
        DispatchFn dispatch;
        Callback fn;
    };

    /** Start the head-of-queue task if the core allows execution. */
    void trySchedule();

    /** Re-clock the in-flight task for a new speed factor. */
    void applySpeed(double newSpeed);

    /** Fold elapsed progress into remaining_. */
    void updateProgress();

    void scheduleCompletion();
    void completeCurrent();

    Simulator &sim_;
    Core &core_;
    int idx_;
    RingQueue<Task> queue_;
    /** Pending sleepUntil() records; the timer event captures a slot
     *  index, keeping the callback pair out of the event queue. */
    SlotPool<Sleep> sleeps_;
    /** Parked admission checks of guarded submissions. */
    SlotPool<Guard> guards_;
    bool running_ = false;
    double remaining_ = 0;
    Callback currentDone_;
    double speed_ = 1.0;
    Time lastUpdate_ = 0;
    EventHandle completionEv_{};
    std::uint64_t tasksCompleted_ = 0;
    Time workCompleted_ = 0;
    bool alwaysBusy_ = false;
};

/**
 * One physical core: SMT threads + idle state machine + frequency
 * domain.
 */
class Core
{
  public:
    /** Per-core counters used by tests and by run reports. */
    struct Stats
    {
        std::uint64_t wakes = 0;
        Time exitLatencyPaid = 0;
        std::map<CState, std::uint64_t> entries;
        std::map<CState, Time> residency;
    };

    /**
     * Energy consumed so far (joules), integrating the power model
     * over this core's activity/idle/frequency history up to now().
     */
    double energyJoules() const;

    Core(Simulator &sim, Machine &machine, const HwConfig &cfg,
         const CStateTable &table, int id);
    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Hardware thread @p i (0 .. threadCount()-1). */
    HwThread &thread(int i);

    /** 2 with SMT, else 1. */
    int threadCount() const { return static_cast<int>(threads_.size()); }

    /** Core id within its machine. */
    int id() const { return id_; }

    /** True when the core sleeps or is mid-wake. */
    bool sleeping() const
    {
        return power_ == PowerState::Sleeping || power_ == PowerState::Waking;
    }

    /** C-state currently (or last) entered. */
    CState currentCState() const { return cstate_; }

    /** Current execution speed for thread @p t. */
    double speedFor(const HwThread &t) const;

    /** Register an armed timer (governor wake-up hint). */
    void armTimer(Time when);

    /** Remove a previously armed timer. */
    void disarmTimer(Time when);

    /** Frequency domain (tests / reports). */
    FreqDomain &freq() { return freq_; }

    /** Idle governor (tests / reports). */
    MenuGovernor &governor() { return governor_; }

    /** Counters. */
    const Stats &stats() const { return stats_; }

    /**
     * Enter the idle path if every thread is idle. Called internally
     * after task completion; exposed so Machine can settle the
     * initial state after construction.
     */
    void maybeEnterIdle();

  private:
    friend class HwThread;
    friend class Machine;

    enum class PowerState { Active, PollIdle, Sleeping, Waking };

    /** Current power draw (watts) given state and frequency. */
    double currentPowerW() const;

    /** Fold the elapsed interval into the energy counter. */
    void accrueEnergy();

    void onThreadQueued(HwThread &t);
    void onThreadRunChanged();
    void beginWake();
    void finishWake();
    void refreshSpeeds();
    Time timerHintDelta() const;
    void startTickLoop();
    void tick();
    bool anyThreadBusy() const;

    Simulator &sim_;
    Machine &machine_;
    const HwConfig *cfg_;
    const CStateTable *table_;
    MenuGovernor governor_;
    FreqDomain freq_;
    int id_;
    std::vector<std::unique_ptr<HwThread>> threads_;
    PowerState power_ = PowerState::Active;
    CState cstate_ = CState::C0;
    Time idleStart_ = 0;
    Time pendingIdleDur_ = 0;
    Time lastWakeEnd_ = 0;
    /**
     * Armed timer deadlines, unordered. A core has a handful at most,
     * so the governor's min scan is cheaper than the per-arm node
     * allocation a std::multiset would pay on every sleepUntil().
     */
    std::vector<Time> armedTimers_;
    Time nextTick_ = kTimeNever;
    Stats stats_;
    bool countedActive_ = true;
    mutable double energyJ_ = 0;
    mutable Time lastEnergyAt_ = 0;
};

} // namespace hw
} // namespace tpv

#endif // TPV_HW_CORE_HH
