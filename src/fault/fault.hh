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
 * the ExperimentConfig, every window is an explicit
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

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "sim/time.hh"
#include "svc/topology.hh"

namespace tpv {
namespace fault {

/** One active interval of a fault. */
struct FaultWindow
{
    Time start = 0;
    Time end = 0;
};

/**
 * One replica crash of a plan: which replica, when it dies, when it
 * restarts, and how long senders take to notice.
 */
struct FaultSpec
{
    /** Target tier name. */
    std::string tier;
    /** Target replica; -1 = every replica of the tier. */
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
 * The fault axis of a study cell: an ordered list of FaultSpecs.
 * Plain copyable data, carried by core::ExperimentConfig and
 * core::Scenario; an empty plan is the no-fault baseline and costs
 * nothing (no events — healthy runs stay bit-identical to pre-fault
 * builds).
 */
struct FaultPlan
{
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }

    /** "none", or the specs' labels joined with '+'. */
    std::string label() const;

    /** Append a spec (builder chaining). */
    FaultPlan &add(FaultSpec spec);

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
 *
 * arm() replays the whole fault timeline *offline* — every window
 * begin/detect/end in execution order, through the overlap-composition
 * (engage) state machine — and schedules only the resulting concrete
 * state flips.
 */
class Injector
{
  public:
    Injector(Simulator &sim, svc::ServiceGraph &graph, FaultPlan plan);

    /**
     * Validate every spec against the graph (fatal() naming the
     * field on an unknown tier, an out-of-range replica or a
     * negative time), clamp its window to [now, horizon) and
     * schedule its crash/detect/restart events. Call exactly once.
     */
    void arm(Time horizon);

    /** Fault windows scheduled by arm() (diagnostics). */
    std::uint64_t windowsArmed() const { return windowsArmed_; }

    /**
     * The window @p spec asks for before clamping:
     * [start, start+duration), or [start, horizon) when duration is 0.
     */
    static FaultWindow materialise(const FaultSpec &spec, Time horizon);

  private:
    /** One begin/detect/end of the offline timeline replay, in the
     *  order the simulator would execute them. */
    struct SweepEntry
    {
        enum Type : std::uint8_t { Begin, Detect, End };

        Time when = 0;
        /** Arm order: the serial insertion sequence, tie-break for
         *  entries sharing a nanosecond. */
        std::uint64_t order = 0;
        Type type = Begin;
        const FaultSpec *spec = nullptr;
        svc::Tier *tier = nullptr;
    };

    /** Replay one sweep entry: advance the engage state machine and
     *  schedule the concrete ops it implies. */
    void replayBegin(const SweepEntry &e);
    void replayDetect(const SweepEntry &e);
    void replayEnd(const SweepEntry &e);

    /** fatal() unless @p spec is a valid target in this graph.
     *  @return the targeted tier. */
    svc::Tier &validate(const FaultSpec &spec);

    /** Replica list a spec targets (-1 expands to all). */
    static std::vector<int> targetReplicas(const FaultSpec &spec,
                                           const svc::Tier &tier);

    /**
     * Track overlapping windows on one replica: the crash engages on
     * the first window in and reverts on the last window out, so two
     * specs whose windows overlap compose instead of the earlier end
     * event restarting the replica under the later window. Pure
     * bookkeeping, advanced during the offline replay.
     * @return true when the state should actually flip.
     */
    bool engage(const svc::Tier *tier, int replica, bool active);

    Simulator &sim_;
    svc::ServiceGraph &graph_;
    FaultPlan plan_;
    bool armed_ = false;
    std::uint64_t windowsArmed_ = 0;
    /** (tier, replica) -> active window count (offline replay). */
    std::map<std::pair<const svc::Tier *, int>, int> active_;
};

} // namespace fault
} // namespace tpv

#endif // TPV_FAULT_FAULT_HH
