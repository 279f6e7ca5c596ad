#include "svc/traffic.hh"

namespace tpv {
namespace svc {

std::string TrafficPolicy::label() const
{
    std::string out;
    if (retry.enabled()) {
        out += "+rt" + std::to_string(retry.deadline / usec(1)) +
               "usx" + std::to_string(retry.maxAttempts);
    }
    if (admission.maxQueueDepth > 0)
        out += "+q" + std::to_string(admission.maxQueueDepth);
    if (breaker.enabled())
        out += "+cb" + std::to_string(breaker.failureThreshold);
    return out;
}

void
CircuitBreaker::transition(State next)
{
    if (state_ == next)
        return;
    state_ = next;
    if (observer_)
        observer_(next);
}

bool
CircuitBreaker::allow(Time now)
{
    switch (state_) {
      case State::Closed:
        return true;
      case State::Open:
        if (now - openedAt_ >= policy_.cooldown) {
            transition(State::HalfOpen);
            probeInFlight_ = true;
            probeSentAt_ = now;
            return true;
        }
        return false;
      case State::HalfOpen:
        // The probe itself went through; hold further traffic until
        // its outcome arrives. If it has been silent for a whole
        // cooldown, assume it died and admit a replacement probe.
        if (probeInFlight_ && now - probeSentAt_ >= policy_.cooldown) {
            probeSentAt_ = now;
            return true;
        }
        return !probeInFlight_;
    }
    return true;
}

void
CircuitBreaker::onSuccess()
{
    failures_ = 0;
    probeInFlight_ = false;
    transition(State::Closed);
}

bool
CircuitBreaker::onFailure(Time now)
{
    if (state_ == State::HalfOpen) {
        // The probe failed: straight back to Open for a new cooldown.
        probeInFlight_ = false;
        transition(State::Open);
        openedAt_ = now;
        return true;
    }
    ++failures_;
    if (state_ == State::Closed &&
        failures_ >= policy_.failureThreshold) {
        transition(State::Open);
        openedAt_ = now;
        return true;
    }
    return false;
}

} // namespace svc
} // namespace tpv
