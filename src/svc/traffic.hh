/**
 * @file
 * Traffic management: the production control loops that let a service
 * defend itself — per-request deadlines with budgeted retries,
 * admission control / load shedding at tier queues, and per-replica
 * circuit breakers.
 *
 * The paper's measurement methodology meets these loops head on: a
 * client that retries on deadline changes the offered load it claims
 * to measure, a shedding server answers a different request mix than
 * the generator sent, and an open breaker moves traffic between
 * replicas mid-run. All three are deterministic here — state advances
 * only inside simulated events — so swept grids stay bit-identical at
 * any study parallelism. Every knob defaults *off*, leaving existing
 * configurations (and the golden-determinism fingerprints) unchanged.
 */

#ifndef TPV_SVC_TRAFFIC_HH
#define TPV_SVC_TRAFFIC_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/time.hh"

namespace tpv {
namespace svc {

/**
 * Client-side deadline + retry knobs of a fan-out edge. The sender
 * arms a timer per sub-request; if the reply has not arrived within
 * the per-attempt deadline, the sub-request is re-issued to the next
 * trusted replica — which is what actually recovers a sub-request
 * swallowed by a crash shorter than the failure detector's delay
 * (nobody ever suspects the replica, so only the sender's own
 * timeout can notice).
 */
struct RetryPolicy
{
    /** Per-attempt deadline; 0 disables deadlines and retries. */
    Time deadline = 0;
    /** Total attempts per sub-request (first send included). */
    int maxAttempts = 3;
    /**
     * Retry budget: retries earned per primary sub-request sent (the
     * classic 10%-retry-budget rule). Caps retry storms: once the
     * bucket is empty, deadline expiries are counted but not acted
     * on until fresh traffic refills it.
     */
    double budgetRatio = 0.1;
    /** Token-bucket burst: retries available before any traffic. */
    double budgetBurst = 16.0;

    bool enabled() const { return deadline > 0; }
};

/**
 * Admission control at a tier's worker queues: shed work the tier
 * cannot serve in time instead of queueing it forever. Overload is
 * the regime where this buys goodput — without shedding every
 * request waits behind an unbounded backlog and *nothing* finishes
 * in time (the goodput cliff); with it the tier serves at capacity
 * and sheds the excess (the plateau bench/overload measures).
 */
struct AdmissionPolicy
{
    /** Shed a request whose worker queue is at this depth (0 = off). */
    int maxQueueDepth = 0;
    /**
     * CoDel-style delay shedding: shed new arrivals once the sojourn
     * of *completed* requests (send to completion, where worker-queue
     * delay is visible) has stayed above this target... (0 = off)
     */
    Time codelTarget = 0;
    /** ...continuously for this long. */
    Time codelInterval = msec(1);
    /** Shed requests whose deadline already passed on arrival. */
    bool dropExpired = false;

    bool enabled() const
    {
        return maxQueueDepth > 0 || codelTarget > 0 || dropExpired;
    }
};

/**
 * Per-replica circuit breaker on a fan-out edge: after
 * failureThreshold consecutive failures (deadline expiries, or
 * replies slower than latencyFactor x the observed streaming p95)
 * the breaker opens and the sender routes around the replica; after
 * cooldown a single half-open probe is let through, and its outcome
 * closes or re-opens the breaker.
 */
struct BreakerPolicy
{
    /** Consecutive failures that open the breaker (0 = off). */
    int failureThreshold = 0;
    /** Open duration before the half-open probe. */
    Time cooldown = msec(5);
    /**
     * Optional latency trip: count an accepted reply slower than
     * this multiple of the fan-out's streaming p95 as a failure
     * (0 = failures come from deadline expiries only). Only consulted
     * once the estimator is warm.
     */
    double latencyFactor = 0;

    bool enabled() const { return failureThreshold > 0; }
};

/** The complete traffic-management configuration of one service. */
struct TrafficPolicy
{
    RetryPolicy retry;
    AdmissionPolicy admission;
    BreakerPolicy breaker;

    bool enabled() const
    {
        return retry.enabled() || admission.enabled() ||
               breaker.enabled();
    }

    /**
     * "+rt2000usx3+q64+cd500us+cb5" style tag appended to topology
     * labels; empty when every knob is off, so pre-traffic study
     * cell names are unchanged.
     */
    std::string label() const;
};

/**
 * Token bucket for the retry budget: earns budgetRatio tokens per
 * primary send, spends one per retry, capped at budgetBurst.
 */
class RetryBudget
{
  public:
    RetryBudget() = default;
    explicit RetryBudget(const RetryPolicy &policy)
        : ratio_(policy.budgetRatio), cap_(policy.budgetBurst),
          tokens_(policy.budgetBurst)
    {
    }

    /** A primary sub-request went out: earn ratio tokens. */
    void earn()
    {
        tokens_ = tokens_ + ratio_ > cap_ ? cap_ : tokens_ + ratio_;
    }

    /** Spend one token for a retry. @return false when broke. */
    bool tryAcquire()
    {
        if (tokens_ < 1.0)
            return false;
        tokens_ -= 1.0;
        return true;
    }

    double tokens() const { return tokens_; }

  private:
    double ratio_ = 0;
    double cap_ = 0;
    double tokens_ = 0;
};

/**
 * Circuit breaker state machine for one replica, driven entirely by
 * simulated time passed in by the caller (deterministic by
 * construction). Closed admits everything; Open admits nothing until
 * cooldown has elapsed; HalfOpen admits a single probe whose outcome
 * decides between Closed and another Open period.
 */
class CircuitBreaker
{
  public:
    enum class State : std::uint8_t { Closed, Open, HalfOpen };

    CircuitBreaker() = default;
    explicit CircuitBreaker(const BreakerPolicy &policy)
        : policy_(policy)
    {
    }

    /**
     * May a request be sent to this replica at @p now? An Open
     * breaker past its cooldown transitions to HalfOpen and admits
     * the caller's request as the probe; a HalfOpen breaker whose
     * probe has been outstanding longer than the cooldown admits a
     * replacement probe (the first may have died silently).
     */
    bool allow(Time now);

    /** An accepted reply arrived from the replica. */
    void onSuccess();

    /**
     * A failure (deadline expiry, slow reply) was attributed to the
     * replica at @p now. @return true if this failure opened (or
     * re-opened) the breaker.
     */
    bool onFailure(Time now);

    State state() const { return state_; }
    int consecutiveFailures() const { return failures_; }

    /**
     * Observe state transitions (old != new): the flight recorder's
     * breaker spans. Null by default — one branch per transition,
     * nothing per admitted request. Install from run setup.
     */
    using Observer = std::function<void(State)>;

    void setObserver(Observer obs) { observer_ = std::move(obs); }

  private:
    /** Enter @p next, notifying the observer on a real change. */
    void transition(State next);

    BreakerPolicy policy_{};
    State state_ = State::Closed;
    int failures_ = 0;
    Time openedAt_ = 0;
    bool probeInFlight_ = false;
    Time probeSentAt_ = 0;
    Observer observer_;
};

} // namespace svc
} // namespace tpv

#endif // TPV_SVC_TRAFFIC_HH
