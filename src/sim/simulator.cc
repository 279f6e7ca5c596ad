#include "sim/simulator.hh"

#include <utility>

#include "sim/logging.hh"

namespace tpv {

EventHandle
Simulator::schedule(Time delay, EventQueue::Callback &&cb)
{
    TPV_ASSERT(delay >= 0, "negative delay ", delay);
    return queue_.schedule(now_ + delay, std::move(cb));
}

EventHandle
Simulator::reschedule(EventHandle h, Time delay)
{
    TPV_ASSERT(delay >= 0, "negative delay ", delay);
    return queue_.reschedule(h, now_ + delay);
}

EventHandle
Simulator::at(Time when, EventQueue::Callback &&cb)
{
    TPV_ASSERT(when >= now_, "scheduling into the past: when=", when,
               " now=", now_);
    return queue_.schedule(when, std::move(cb));
}

Time
Simulator::run()
{
    stopRequested_ = false;
    while (!queue_.empty() && !stopRequested_) {
        Time t = queue_.nextTime();
        TPV_ASSERT(t >= now_, "event queue went backwards");
        now_ = t;
        queue_.runNext();
    }
    return now_;
}

Time
Simulator::runUntil(Time deadline)
{
    TPV_ASSERT(deadline >= now_, "runUntil() into the past");
    stopRequested_ = false;
    while (!queue_.empty() && !stopRequested_) {
        Time t = queue_.nextTime();
        if (t > deadline)
            break;
        TPV_ASSERT(t >= now_, "event queue went backwards");
        now_ = t;
        queue_.runNext();
    }
    if (!stopRequested_ && now_ < deadline)
        now_ = deadline;
    return now_;
}

} // namespace tpv
