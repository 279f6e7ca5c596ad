#include "hw/core.hh"

#include <cmath>
#include <memory>
#include <utility>

#include "hw/machine.hh"
#include "sim/logging.hh"

namespace tpv {
namespace hw {

// ---------------------------------------------------------------------
// HwThread
// ---------------------------------------------------------------------

HwThread::HwThread(Simulator &sim, Core &core, int idx)
    : sim_(sim), core_(core), idx_(idx)
{
    // Pre-size the run queue past any depth a sanely-loaded thread
    // reaches, so backlog bursts mid-run recycle ring slots instead
    // of growing the ring — bench/hotpath gates on the simulator
    // allocating nothing in steady state. Genuine overload can still
    // grow past this; that costs one allocation per doubling.
    queue_.reserve(64);
}

void
HwThread::submit(Time nominalWork, Callback done)
{
    TPV_ASSERT(nominalWork >= 0, "negative work submitted");
    queue_.push_back(Task{static_cast<double>(nominalWork),
                          std::move(done), kNoGuard});
    core_.onThreadQueued(*this);
}

void
HwThread::submitGuarded(Time nominalWork, Callback done, Guard guard)
{
    TPV_ASSERT(nominalWork >= 0, "negative work submitted");
    TPV_ASSERT(static_cast<bool>(guard), "guarded submit needs a guard");
    queue_.push_back(Task{static_cast<double>(nominalWork),
                          std::move(done),
                          guards_.acquire(std::move(guard))});
    core_.onThreadQueued(*this);
}

void
HwThread::sleepUntil(Time when, Time dispatchWork, Callback fn)
{
    sleepUntil(
        when, [dispatchWork]() -> Time { return dispatchWork; },
        std::move(fn));
}

void
HwThread::sleepUntil(Time when, DispatchFn dispatchWork, Callback fn)
{
    TPV_ASSERT(when >= sim_.now(), "sleepUntil into the past");
    core_.armTimer(when);
    // Park the callback pair in the sleep pool: the timer event then
    // captures a 4-byte index and fits the queue's inline budget.
    const std::uint32_t idx =
        sleeps_.acquire(Sleep{std::move(dispatchWork), std::move(fn)});
    sim_.at(when, [this, when, idx] {
        core_.disarmTimer(when);
        Sleep s = sleeps_.take(idx);
        submit(s.dispatch ? s.dispatch() : 0, std::move(s.fn));
    });
}

void
HwThread::trySchedule()
{
    if (running_ || queue_.empty() || core_.sleeping())
        return;
    if (core_.power_ != Core::PowerState::Active)
        return;
    bool dropped = false;
    while (!queue_.empty()) {
        Task task = queue_.pop_front();
        // A guarded task asks permission at the instant it would
        // begin execution; a refusal abandons it before any work is
        // spent (the tied-request cancel-before-run path).
        if (task.guard != kNoGuard) {
            Guard guard = guards_.take(task.guard);
            if (!guard()) {
                dropped = true;
                continue;
            }
        }
        running_ = true;
        remaining_ = task.remaining;
        workCompleted_ += static_cast<Time>(task.remaining);
        currentDone_ = std::move(task.done);
        lastUpdate_ = sim_.now();
        // The run-state change re-clocks every thread on the core
        // (SMT contention) and schedules this task's completion via
        // applySpeed().
        core_.onThreadRunChanged();
        return;
    }
    // Every queued task was abandoned by its guard: the wake was for
    // nothing, so let the core settle back into its idle state.
    if (dropped)
        core_.maybeEnterIdle();
}

void
HwThread::updateProgress()
{
    const Time now = sim_.now();
    if (now > lastUpdate_) {
        remaining_ -= static_cast<double>(now - lastUpdate_) * speed_;
        if (remaining_ < 0)
            remaining_ = 0;
    }
    lastUpdate_ = now;
}

void
HwThread::applySpeed(double newSpeed)
{
    TPV_ASSERT(newSpeed > 0, "thread speed must be positive");
    if (!running_) {
        speed_ = newSpeed;
        return;
    }
    updateProgress();
    speed_ = newSpeed;
    scheduleCompletion();
}

void
HwThread::scheduleCompletion()
{
    const auto delay = static_cast<Time>(std::ceil(remaining_ / speed_));
    // A speed change re-clocks the in-flight task in place.
    completionEv_ = sim_.pending(completionEv_)
                        ? sim_.reschedule(completionEv_, delay)
                        : sim_.schedule(delay, [this] { completeCurrent(); });
}

void
HwThread::completeCurrent()
{
    TPV_ASSERT(running_, "completion without a running task");
    updateProgress();
    TPV_ASSERT(remaining_ <= 1.0, "task completed with work left: ",
               remaining_);
    running_ = false;
    ++tasksCompleted_;
    Callback done = std::move(currentDone_);
    currentDone_ = nullptr;
    core_.onThreadRunChanged();
    if (done)
        done();
    // The callback may have queued follow-up work on this thread.
    trySchedule();
    core_.maybeEnterIdle();
}

// ---------------------------------------------------------------------
// Core
// ---------------------------------------------------------------------

Core::Core(Simulator &sim, Machine &machine, const HwConfig &cfg,
           const CStateTable &table, int id)
    : sim_(sim), machine_(machine), cfg_(&cfg), table_(&table),
      governor_(table),
      freq_(sim, cfg, machine.activeCores_, [this] { refreshSpeeds(); }),
      id_(id)
{
    freq_.setPreChangeHook([this] { accrueEnergy(); });
    const int nthreads = cfg.smt ? 2 : 1;
    for (int i = 0; i < nthreads; ++i)
        threads_.push_back(std::make_unique<HwThread>(sim, *this, i));
}

double
Core::currentPowerW() const
{
    switch (power_) {
      case PowerState::Sleeping:
        return table_->spec(cstate_).powerW;
      case PowerState::PollIdle:
        return cfg_->pollPowerW;
      case PowerState::Waking:
        // Voltage/clock ramp: clocks still gated, so only the static
        // share is drawn. (Billing the ramp at full active power
        // would make C1E's 20us break-even residency impossible.)
        return cfg_->activePowerBaseW;
      case PowerState::Active:
        return cfg_->activePowerW(freq_.currentGhz());
    }
    return 0;
}

void
Core::accrueEnergy()
{
    // watts * ns -> joules; shared with the const read path.
    (void)energyJoules();
}

double
Core::energyJoules() const
{
    // Const-friendly accrual so reads are always current.
    const Time now = sim_.now();
    if (now > lastEnergyAt_) {
        energyJ_ += currentPowerW() *
                    (static_cast<double>(now - lastEnergyAt_) * 1e-9);
        lastEnergyAt_ = now;
    }
    return energyJ_;
}

HwThread &
Core::thread(int i)
{
    TPV_ASSERT(i >= 0 && i < threadCount(), "thread index out of range");
    return *threads_[static_cast<std::size_t>(i)];
}

bool
Core::anyThreadBusy() const
{
    for (const auto &t : threads_) {
        if (t->busy())
            return true;
    }
    return false;
}

double
Core::speedFor(const HwThread &t) const
{
    double smtFactor = 1.0;
    if (threads_.size() == 2) {
        const HwThread &sibling = *threads_[t.index() == 0 ? 1 : 0];
        if (sibling.running())
            smtFactor = cfg_->smtThroughput;
    }
    double speed = freq_.speedFactor() * smtFactor;
    // A frozen machine (stop-the-world pause: GC, SMI) makes no
    // forward progress; speeds must stay positive, so in-flight work
    // crawls at a factor that amounts to sub-nanosecond progress over
    // any realistic pause window. Machine::setFrozen() re-clocks every
    // thread when the window opens and closes.
    if (machine_.frozen())
        speed *= kFrozenSpeedFactor;
    return speed;
}

void
Core::refreshSpeeds()
{
    for (auto &t : threads_)
        t->applySpeed(speedFor(*t));
}

void
Core::onThreadQueued(HwThread &t)
{
    switch (power_) {
      case PowerState::Active:
        t.trySchedule();
        return;
      case PowerState::PollIdle:
        accrueEnergy();
        power_ = PowerState::Active;
        if (!countedActive_) {
            countedActive_ = true;
            machine_.onCoreActiveChanged(+1);
        }
        t.trySchedule();
        return;
      case PowerState::Sleeping:
        beginWake();
        return;
      case PowerState::Waking:
        return; // handled at finishWake()
    }
}

void
Core::onThreadRunChanged()
{
    refreshSpeeds();
}

void
Core::beginWake()
{
    TPV_ASSERT(power_ == PowerState::Sleeping, "beginWake while not asleep");
    accrueEnergy(); // close out the sleep interval at C-state power
    const Time idleDur = sim_.now() - idleStart_;
    governor_.recordIdle(idleDur);
    stats_.residency[cstate_] += idleDur;
    ++stats_.wakes;

    if (!countedActive_) {
        countedActive_ = true;
        machine_.onCoreActiveChanged(+1);
    }

    const Time exit = table_->exitLatency(cstate_);
    stats_.exitLatencyPaid += exit;
    pendingIdleDur_ = idleDur;
    if (exit == 0) {
        power_ = PowerState::Active;
        finishWake();
        return;
    }
    power_ = PowerState::Waking;
    sim_.schedule(exit, [this] {
        accrueEnergy(); // bill the ramp interval at ramp power
        power_ = PowerState::Active;
        finishWake();
    });
}

void
Core::finishWake()
{
    TPV_ASSERT(power_ == PowerState::Active, "finishWake in wrong state");
    lastWakeEnd_ = sim_.now();
    freq_.onCoreWake(pendingIdleDur_);
    for (auto &t : threads_)
        t->trySchedule();
}

void
Core::maybeEnterIdle()
{
    if (power_ != PowerState::Active || anyThreadBusy())
        return;

    accrueEnergy(); // close out the active interval

    if (cfg_->idlePoll) {
        power_ = PowerState::PollIdle;
        cstate_ = CState::C0;
        if (countedActive_) {
            countedActive_ = false;
            machine_.onCoreActiveChanged(-1);
        }
        return;
    }

    switch (cfg_->idleGovernor) {
      case IdleGovernorKind::Menu:
        cstate_ = governor_.choose(timerHintDelta()).state;
        break;
      case IdleGovernorKind::AlwaysDeepest:
        cstate_ = table_->deepest().state;
        break;
      case IdleGovernorKind::AlwaysShallowest:
        // Shallowest *sleeping* state (C1 when enabled, else C0).
        cstate_ = table_->states().size() > 1 ? table_->states()[1].state
                                              : CState::C0;
        break;
    }
    ++stats_.entries[cstate_];
    idleStart_ = sim_.now();
    power_ = PowerState::Sleeping;
    freq_.onCoreIdle(sim_.now() - lastWakeEnd_);
    if (countedActive_) {
        countedActive_ = false;
        machine_.onCoreActiveChanged(-1);
    }
}

Time
Core::timerHintDelta() const
{
    Time next = kTimeNever;
    for (Time t : armedTimers_)
        next = std::min(next, t);
    if (nextTick_ != kTimeNever)
        next = std::min(next, nextTick_);
    if (next == kTimeNever)
        return kTimeNever;
    return next > sim_.now() ? next - sim_.now() : 0;
}

void
Core::armTimer(Time when)
{
    armedTimers_.push_back(when);
}

void
Core::disarmTimer(Time when)
{
    for (std::size_t i = 0; i < armedTimers_.size(); ++i) {
        if (armedTimers_[i] == when) {
            armedTimers_[i] = armedTimers_.back();
            armedTimers_.pop_back();
            return;
        }
    }
}

void
Core::startTickLoop()
{
    if (cfg_->tickless)
        return;
    // Stagger tick phases across cores like real per-CPU timers.
    const Time phase =
        (cfg_->tickPeriod * (id_ % cfg_->cores)) / cfg_->cores;
    nextTick_ = sim_.now() + phase + cfg_->tickPeriod;
    sim_.at(nextTick_, [this] { tick(); });
}

void
Core::tick()
{
    nextTick_ = sim_.now() + cfg_->tickPeriod;
    // The scheduling-clock interrupt runs on the core's first thread.
    threads_[0]->submit(cfg_->tickWork, nullptr);
    sim_.at(nextTick_, [this] { tick(); });
}

} // namespace hw
} // namespace tpv
