/**
 * @file
 * Experiment definition and single-run execution: one fully wired
 * client/server test cluster (Figure 1) under a chosen client-side
 * and server-side hardware configuration, producing the per-run
 * metrics the paper's studies aggregate.
 */

#ifndef TPV_CORE_EXPERIMENT_HH
#define TPV_CORE_EXPERIMENT_HH

#include <cstdint>
#include <string>

#include "fault/fault.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "loadgen/params.hh"
#include "net/link.hh"
#include "obs/trace.hh"
#include "stats/descriptive.hh"
#include "svc/hdsearch.hh"
#include "svc/memcached.hh"
#include "svc/socialnet.hh"
#include "svc/synthetic.hh"

namespace tpv {
namespace core {

/** The paper's four benchmarks (Section IV-B). */
enum class WorkloadKind { Memcached, HdSearch, SocialNetwork, Synthetic };

/** @return workload name. */
const char *toString(WorkloadKind k);

/**
 * Everything needed to run one experiment: workload, client/server
 * hardware configurations, generator settings and the network.
 * Copyable so the Runner can fan runs out across OS threads.
 */
struct ExperimentConfig
{
    WorkloadKind workload = WorkloadKind::Memcached;
    /** Client machine knobs (Table II LP / HP or custom). */
    hw::HwConfig client = hw::HwConfig::clientLP();
    /** Server machine knobs (baseline / SMT on / C1E on or custom). */
    hw::HwConfig server = hw::HwConfig::serverBaseline();
    /** Generator design + load (modes per the workload's real client). */
    loadgen::OpenLoopParams gen;
    /** Client <-> server network path. */
    net::Link::Params network;
    svc::MemcachedParams memcached;
    svc::SyntheticParams synthetic;
    svc::HdSearchParams hdsearch;
    svc::SocialNetworkParams socialnet;
    /**
     * Service-topology knobs (shards / replicas / hedge delay), the
     * record of what applyTopology() configured. Sweep this axis with
     * core::sweepTopologies().
     */
    svc::TopologyShape topology;
    /**
     * Faults injected into the service during the run (empty = the
     * healthy baseline, bit-identical to pre-fault builds). Windows
     * are in simulated run time (0 = run start); stochastic windows
     * draw from a run-seed-derived stream. Sweep this axis with
     * core::sweepFaultPlans().
     */
    fault::FaultPlan faultPlan;
    /**
     * Goodput SLO: when > 0, RunResult::receivedWithinSlo counts the
     * in-window replies whose end-to-end latency met this bound —
     * the numerator of the goodput bench/overload sweeps. Purely a
     * reporting knob: no effect on the simulation itself.
     */
    Time sloLatency = 0;
    /**
     * Flight-recorder knobs: per-request span tracing and periodic
     * timeline metrics, exported through obs.sink at the end of the
     * run. Everything defaults off — an untouched ObsOptions records
     * nothing, allocates nothing on the event path, and leaves the
     * run bit-identical to pre-obs builds.
     */
    obs::ObsOptions obs;
    std::uint64_t seed = 1;

    /** Short human-readable tag for reports ("LP-SMToff"). */
    std::string label = "experiment";

    /**
     * Memcached driven by a mutilate-style generator: open-loop,
     * time-sensitive (block-wait), in-app measurement, ETC mix.
     */
    static ExperimentConfig forMemcached(double qps);

    /**
     * HDSearch driven by the MicroSuite client: open-loop,
     * time-insensitive (busy-wait) sends with a blocking completion
     * path, Poisson arrivals.
     */
    static ExperimentConfig forHdSearch(double qps);

    /** Social Network driven by wrk2: block-wait, exponential. */
    static ExperimentConfig forSocialNetwork(double qps);

    /** Synthetic service with the given added delay, mutilate-style
     *  generator (Figure 7). */
    static ExperimentConfig forSynthetic(double qps, Time addedDelay);
};

/**
 * Apply a topology shape to @p cfg: shard count, replica count,
 * hedge delay and hedging policy land on the workload's
 * scatter-gather parameters — the HDSearch fan-out and the sharded
 * Memcached cluster (which is selected whenever the shape widens
 * beyond 1 shard x 1 replica). The shape is also recorded in
 * cfg.topology for reporting.
 */
void applyTopology(ExperimentConfig &cfg,
                   const svc::TopologyShape &shape);

/**
 * Apply a traffic-management policy to @p cfg without touching the
 * topology shape: sub-request deadlines/retries and circuit breakers
 * land on the workload's fan-out edge, admission control on its leaf
 * tier. Recorded in cfg.topology.traffic so cell labels and reports
 * can name the policy. Sweep this axis with
 * core::sweepTrafficPolicies().
 */
void applyTrafficPolicy(ExperimentConfig &cfg,
                        const svc::TrafficPolicy &policy);

/**
 * Apply a cache shape to @p cfg without touching the rest of the
 * topology: the shape lands on the memcached cluster (which runOnce
 * selects whenever a cache is enabled) and, for the Memcached
 * workload, the generator's request model is re-bound to the keyed
 * one — every request draws a Zipf rank over shape.keys and carries
 * it in Message::key. A disabled shape records itself and leaves the
 * historical unkeyed model in place. Sweep this axis with
 * core::sweepCacheShapes().
 */
void applyCacheShape(ExperimentConfig &cfg,
                     const svc::CacheShape &shape);

/** Metrics of a single run (one repetition). */
struct RunResult
{
    /** End-to-end latency summary over the run's requests (us). */
    stats::Summary latency;
    /** Send-side schedule distortion (us late per request). */
    stats::Summary sendLateness;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    /** Replies within cfg.sloLatency (0 when no SLO configured). */
    std::uint64_t receivedWithinSlo = 0;
    /** Client machine power/DVFS activity during the run. */
    hw::MachineStats clientHw;
    /** Server machine stats (single-tier workloads; zeroed for the
     *  multi-machine clusters, whose machines live inside the
     *  service). */
    hw::MachineStats serverHw;
    /** Service-side counters (fan-out, hedging, duplicate work). */
    svc::ServiceStats service;
    /** Simulated events executed (simulator cost diagnostics). */
    std::uint64_t events = 0;

    double avgUs() const { return latency.mean; }
    double p99Us() const { return latency.p99; }
};

/**
 * Execute one run: build a fresh simulated cluster from @p cfg
 * (independent environment per repetition, per Section III's iid
 * requirement), run warmup + measurement + drain, and summarise.
 */
RunResult runOnce(const ExperimentConfig &cfg);

} // namespace core
} // namespace tpv

#endif // TPV_CORE_EXPERIMENT_HH
