/**
 * @file
 * Deterministic fault injection for service topologies.
 *
 * The tail-at-scale mechanisms this repository studies — hedged,
 * tied, and failed-over requests — exist because real clusters lose
 * replicas: a box crashes, its in-flight work dies with it, and the
 * senders only find out once a failure detector (or a connection
 * reset) tells them. This subsystem injects exactly that fault into a
 * svc::ServiceGraph on a schedule, so failover and hedging policies
 * are *measured* against crashes instead of shaped by test fakes.
 *
 * Everything is deterministic: a FaultPlan is plain data carried by
 * the ExperimentConfig, the kill window is an explicit
 * [start, start+duration) interval, and every action runs as a
 * simulated event. Same seed, same faults, same results — the
 * bit-identical-grids guarantee extends to faulty runs, serial or
 * parallel.
 *
 * A replica crash: the replica stops accepting (arrivals dropped),
 * in-flight work error-completes (replies die with the box), and —
 * detectDelay after the crash — fan-outs feeding the tier suspect the
 * replica and re-issue outstanding sub-requests to a live one
 * (requestsFailedOver). Restart closes the window.
 */

#ifndef TPV_FAULT_FAULT_HH
#define TPV_FAULT_FAULT_HH

#include <optional>
#include <string>

#include "sim/simulator.hh"
#include "sim/time.hh"
#include "svc/topology.hh"

namespace tpv {
namespace fault {

/**
 * One replica crash: which replica, when it dies, when it restarts,
 * and how long senders take to notice.
 */
struct FaultSpec
{
    /** Target tier name. */
    std::string tier;
    /** Target replica, in [0, replica count). */
    int replica = 0;
    /** Crash instant (simulated time; 0 = run start, warmup included). */
    Time start = 0;
    /** Down time before the restart; 0 = the rest of the run. */
    Time duration = 0;
    /**
     * Failure-*detection* latency. The crash is instant, but senders
     * only learn of it (suspect the replica, re-issue outstanding
     * sub-requests) this long after the window opens — 0 models a
     * kill whose connection resets announce it immediately, larger
     * values model silent failures found by a health-check/timeout
     * detector. Hedged and tied requests mask the undetected
     * interval; plain failover eats it.
     */
    Time detectDelay = 0;

    /** Compact tag for study-cell labels ("kill-r0@30ms"). */
    std::string label() const;
};

/**
 * The fault axis of a study cell: at most one replica kill. Plain
 * copyable data, carried by core::ExperimentConfig and
 * core::Scenario; an empty plan is the no-fault baseline and costs
 * nothing (no events — healthy runs stay bit-identical to pre-fault
 * builds).
 */
struct FaultPlan
{
    std::optional<FaultSpec> fault;

    bool empty() const { return !fault.has_value(); }

    /** "none", or the kill's label. */
    std::string label() const;

    /** The no-fault baseline. */
    static FaultPlan none() { return FaultPlan{}; }

    /** Kill @p replica of @p tier at @p start; restart after
     *  @p duration (0 = never restart). Senders learn of the crash
     *  @p detectDelay after it happens (0 = immediately). */
    static FaultPlan replicaKill(std::string tier, int replica,
                                 Time start, Time duration = 0,
                                 Time detectDelay = 0);
};

/**
 * Applies a FaultPlan to one run's ServiceGraph. Construct after the
 * graph, call arm() once the run horizon is known (before the
 * simulation starts), and keep it alive for the run — the scheduled
 * events call back into it.
 */
class Injector
{
  public:
    Injector(Simulator &sim, svc::ServiceGraph &graph, FaultPlan plan);

    /**
     * Validate the kill against the graph (fatal() naming the field
     * on an unknown tier, an out-of-range replica or a negative
     * time), clamp its window to [now, horizon) and schedule the
     * crash at its start, the detection detectDelay later (if the
     * window is still open) and the restart at its end. Call exactly
     * once.
     */
    void arm(Time horizon);

  private:
    /** fatal() unless @p spec is a valid target in this graph.
     *  @return the targeted tier. */
    svc::Tier &validate(const FaultSpec &spec);

    Simulator &sim_;
    svc::ServiceGraph &graph_;
    FaultPlan plan_;
    bool armed_ = false;
};

} // namespace fault
} // namespace tpv

#endif // TPV_FAULT_FAULT_HH
