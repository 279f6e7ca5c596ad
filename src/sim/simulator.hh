/**
 * @file
 * The simulation executive: owns the clock and the event queue.
 *
 * One Simulator instance is one independent simulated timeline. The
 * experiment framework creates a fresh Simulator (and a fresh model
 * tree) per repetition, which is how the paper's "reset the environment
 * between runs" independence requirement (Section III, IID samples) is
 * realised.
 */

#ifndef TPV_SIM_SIMULATOR_HH
#define TPV_SIM_SIMULATOR_HH

#include <cstdint>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace tpv {

/**
 * Discrete-event simulation executive.
 *
 * Components schedule callbacks with schedule()/at(); run() and
 * runUntil() drive the timeline forward. Time only advances at event
 * boundaries, so all model code observes a consistent now().
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p cb to run @p delay after now().
     * @pre delay >= 0
     */
    EventHandle schedule(Time delay, EventQueue::Callback &&cb);

    /** schedule() of a callable built straight into its event slot. */
    template <BuildsInPlace<EventQueue::Callback> F>
    EventHandle
    schedule(Time delay, F &&f)
    {
        TPV_ASSERT(delay >= 0, "negative delay ", delay);
        return queue_.schedule(now_ + delay, std::forward<F>(f));
    }

    /**
     * Schedule @p cb at absolute time @p when.
     * @pre when >= now()
     */
    EventHandle at(Time when, EventQueue::Callback &&cb);

    /** at() of a callable built straight into its event slot. */
    template <BuildsInPlace<EventQueue::Callback> F>
    EventHandle
    at(Time when, F &&f)
    {
        TPV_ASSERT(when >= now_, "scheduling into the past: when=", when,
                   " now=", now_);
        return queue_.schedule(when, std::forward<F>(f));
    }

    /**
     * Move pending event @p h to @p delay after now(), keeping its
     * callback; orders exactly like cancel() plus a fresh schedule().
     * @pre pending(h) and delay >= 0
     * @return the event's new handle; @p h goes stale.
     */
    EventHandle reschedule(EventHandle h, Time delay);

    /** Cancel a pending event. @return true if it was still pending. */
    bool cancel(EventHandle h) { return queue_.cancel(h); }

    /** @return true if @p h refers to a still-pending event. */
    bool pending(EventHandle h) const { return queue_.pending(h); }

    /**
     * Run until the queue drains or stop() is called.
     * @return the final simulated time.
     */
    Time run();

    /**
     * Run events with time <= @p deadline, then set now() == deadline.
     * Events scheduled beyond the deadline stay pending.
     * @return the final simulated time (== deadline unless stopped).
     */
    Time runUntil(Time deadline);

    /** Request that run()/runUntil() return after the current event. */
    void stop() { stopRequested_ = true; }

    /** Number of live events in the queue. */
    std::size_t pendingEvents() const { return queue_.size(); }

    /** Total events executed so far (cheap progress / perf metric). */
    std::uint64_t executedEvents() const { return queue_.executed(); }

    /** Direct queue access for advanced components (timers). */
    EventQueue &queue() { return queue_; }

  private:
    EventQueue queue_;
    Time now_ = 0;
    bool stopRequested_ = false;
};

} // namespace tpv

#endif // TPV_SIM_SIMULATOR_HH
