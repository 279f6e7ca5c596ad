/**
 * @file
 * Composable service-topology layer: declarative cluster wiring for
 * every service model.
 *
 * The paper evaluates its risk taxonomy on three hand-rolled cluster
 * shapes (a single-tier server, the HDSearch midtier/bucket pair, the
 * Social Network chain). This subsystem factors the wiring those
 * shapes share into three pieces:
 *
 *  - Tier: a worker pool plus a per-request work model on a host
 *    machine (NIC IRQ -> pinned worker -> service work -> handler);
 *  - ServiceGraph: owns the machines, tiers, fan-outs and intra-
 *    cluster links of one service, looks like a single net::Endpoint
 *    to the client, and keeps the service-wide counters. Every
 *    service model is a ServiceGraph subclass that wires its tiers in
 *    its constructor;
 *  - Fanout: scatter-gather RPC from a parent tier to a sharded child
 *    tier, with optional replication and cancellable hedged requests.
 *
 * Hedging follows the tail-at-scale playbook: if a shard's reply has
 * not arrived hedgeDelay after the scatter, a duplicate sub-request
 * goes to the next replica; the first reply per shard wins and the
 * loser's reply is discarded deterministically (simulated time is a
 * single timeline per run, so serial and parallel study execution see
 * bit-identical outcomes). The duplicate work is accounted in
 * ServiceStats so over-provisioning studies can price hedging.
 */

#ifndef TPV_SVC_TOPOLOGY_HH
#define TPV_SVC_TOPOLOGY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hh"
#include "net/link.hh"
#include "net/message.hh"
#include "sim/fixed_containers.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "stats/streaming_quantile.hh"
#include "svc/cache.hh"
#include "svc/traffic.hh"
#include "svc/worker_pool.hh"

namespace tpv {

namespace obs {
class TraceRecorder;
} // namespace obs

namespace svc {

/** Per-tier slice of the service counters (one entry per tier of a
 *  ServiceGraph, in construction order). */
struct TierBreakdown
{
    std::string name;
    /** Requests handed to this tier's worker pools. */
    std::uint64_t requestsDispatched = 0;
    /** Nominal service work dispatched on this tier. */
    Time workDispatched = 0;
    /** Requests lost on this tier (dead-replica arrivals, replies
     *  that died with a crashed replica). */
    std::uint64_t requestsLost = 0;
    /** Requests shed by this tier's admission control (depth and
     *  delay variants combined; not part of requestsLost). */
    std::uint64_t requestsShed = 0;
    /** Fault windows opened against this tier. */
    std::uint64_t faultsInjected = 0;
    /** Streaming p95 of sub-request round-trips *into* this tier, as
     *  observed by an *Adaptive* fan-out feeding it (0 otherwise —
     *  the estimator only runs when a policy consumes it). The
     *  signal adaptive hedging steers by. */
    Time replyP95 = 0;
    /** Cache lookups served from this tier's caches (cache-enabled
     *  memcached tier only; 0 elsewhere). */
    std::uint64_t cacheHits = 0;
    /** Cache lookups that fell through to the backing store. */
    std::uint64_t cacheMisses = 0;
    /** Per-shard dispatch counts, sized by TierParams::trackShards
     *  (empty for untracked tiers). The hot-key skew studies read
     *  the max/mean of this as the shard-imbalance metric. */
    std::vector<std::uint64_t> shardRequests;
    /** Per-shard nominal work dispatched (same indexing). */
    std::vector<Time> shardWork;
};

/** Counters every service exposes. */
struct ServiceStats
{
    std::uint64_t requestsReceived = 0;
    std::uint64_t responsesSent = 0;
    /** Total nominal service work dispatched (utilisation numerator). */
    Time serviceWorkDispatched = 0;
    /** Scatter-gather sub-requests sent to child tiers (primaries). */
    std::uint64_t subRequestsSent = 0;
    /** Hedge duplicates actually sent (the shard was still pending). */
    std::uint64_t hedgesSent = 0;
    /** Hedge timers cancelled because the primary replied in time. */
    std::uint64_t hedgesCancelled = 0;
    /** Shard replies discarded because another replica won the race. */
    std::uint64_t duplicatesDiscarded = 0;
    /** Service work spent on discarded replies (the price of hedging). */
    Time duplicateWorkDispatched = 0;
    /** Always 0: hedges are not rate-limited. Kept because run
     *  fingerprints (the golden tests, perfbench's reference check)
     *  hash it. */
    std::uint64_t hedgesSuppressed = 0;
    /** Tied twin copies sent alongside primaries (Tied policy). */
    std::uint64_t tiedSent = 0;
    /** Tied twins abandoned before any service work ran — the
     *  cancel-the-loser-before-it-runs win condition. */
    std::uint64_t tiedCancelledBeforeRun = 0;
    /** Fault windows opened by a fault::Injector. */
    std::uint64_t faultsInjected = 0;
    /** Sub-requests re-routed or re-issued around a dead replica. */
    std::uint64_t requestsFailedOver = 0;
    /** Requests dropped by faults: dead-replica arrivals, replies
     *  that died with their replica, lanes with no live replica. With
     *  deadline/retry traffic policies this counts *terminal* losses
     *  only — a drop covered by a pending retry is accounted in
     *  subRequestsDropped until the retry budget or attempt cap
     *  decides its fate. */
    std::uint64_t requestsLost = 0;
    /** Always 0: no fault pauses a machine. Kept because run
     *  fingerprints (the golden tests, perfbench's reference check)
     *  hash it. */
    Time pauseTime = 0;
    /** Sub-requests re-issued because a per-attempt deadline expired
     *  (the traffic layer's client-side retries). */
    std::uint64_t requestsRetried = 0;
    /** Deadline expiries that wanted a retry but were denied by the
     *  attempt cap or an empty retry budget. */
    std::uint64_t retriesSuppressed = 0;
    /** Fault-dropped sub-request copies absorbed by the retry layer
     *  instead of counting as lost (a pending deadline covers the
     *  lane, or the lane was already served by another copy). */
    std::uint64_t subRequestsDropped = 0;
    /** Requests shed by admission control on queue depth. */
    std::uint64_t requestsShedDepth = 0;
    /** Always 0: admission control sheds on queue depth only. Kept
     *  because run fingerprints (the golden tests, perfbench's
     *  reference check) hash it. */
    std::uint64_t requestsShedDelay = 0;
    /** Circuit-breaker transitions into the Open state. */
    std::uint64_t breakerOpens = 0;
    /** Primary sub-requests routed to another replica because the
     *  primary's breaker was open. */
    std::uint64_t breakerSkips = 0;
    /** Half-open probe requests admitted through a breaker. */
    std::uint64_t breakerProbes = 0;
    /** GETs served straight from a tier cache. */
    std::uint64_t cacheHits = 0;
    /** GETs that missed their tier cache and cascaded to the
     *  backing store. */
    std::uint64_t cacheMisses = 0;
    /** Cache insertions performed by returning miss fills. */
    std::uint64_t cacheFills = 0;
    /** Entries evicted to make room (fills and SETs combined). */
    std::uint64_t cacheEvictions = 0;
    /** Always 0: no fault flushes a cache. Kept because run
     *  fingerprints (the golden tests, perfbench's reference check)
     *  hash it. */
    std::uint64_t cacheFlushes = 0;
    /** Per-tier breakdown (ServiceGraph services; empty otherwise). */
    std::vector<TierBreakdown> tiers;
};

/**
 * How a fan-out buys back the tail of a slow or failed shard.
 * Auto resolves to Fixed when a hedge delay is configured and None
 * otherwise, so pre-policy configurations keep their behaviour.
 */
enum class HedgePolicy : std::uint8_t
{
    Auto,
    /** Wait for the primary, however long it takes. */
    None,
    /** Duplicate a shard after a fixed delay (the classic hedge). */
    Fixed,
    /**
     * Duplicate a shard once it is slower than the *observed* p95 of
     * that tier's replies (streaming estimate): the hedge threshold
     * tracks load and replica crashes instead of a tuning constant.
     * The configured hedgeDelay seeds the threshold until the
     * estimator has seen enough replies.
     */
    Adaptive,
    /**
     * Send two copies up front; the first to reach a worker claims
     * the request and the other is cancelled before it runs
     * (Dean & Barroso's tied requests — the duplicate costs queue
     * slots, not service work).
     */
    Tied,
};

/** @return policy name ("fixed", "tied", ...). */
const char *toString(HedgePolicy p);

/** Resolve Auto: Fixed when @p hedgeDelay > 0, else None. */
HedgePolicy resolveHedgePolicy(HedgePolicy p, Time hedgeDelay);

/**
 * The topology knobs every study can sweep: how wide a fan-out
 * shards, how many replicas back each shard, and whether slow shards
 * are hedged. The default shape (1 shard, 1 replica, no hedging)
 * leaves a service's behaviour unchanged.
 */
struct TopologyShape
{
    /** Shards a fan-out scatters to. */
    int shards = 1;
    /** Replicas backing each shard (hedges go to the next replica). */
    int replicas = 1;
    /** Hedge a shard after this delay; 0 disables hedging. Under the
     *  Adaptive policy this is the pre-warmup fallback threshold. */
    Time hedgeDelay = 0;
    /** Hedging policy; Auto = Fixed when hedgeDelay > 0 else None. */
    HedgePolicy policy = HedgePolicy::Auto;
    /** Traffic-management knobs (deadlines/retries, shedding,
     *  breakers); all default off. */
    TrafficPolicy traffic{};
    /** Keyed-workload / finite-cache knobs of the memcached tier
     *  (ignored by other workloads); all default off. */
    CacheShape cache{};

    /** "s8", "s8r2", "s8r2+h300us", "s8r2+ah300us", "s8r2+tied"
     *  style tag for study cells, with the traffic policy's tag
     *  (e.g. "+rt2000usx3+q64") and the cache shape's tag (e.g.
     *  "+z0.99k64Kc4K-lru") appended when set. */
    std::string label() const;
};

/**
 * Root request id a message carries on the entry tier and on direct
 * fan-out children (sub-requests stamp the parent's id into parentId,
 * which *is* the root one fan-out down). Deeper tiers see slot ids
 * here — their trace hooks are depth-gated off (see
 * ServiceGraph::setTrace).
 */
inline std::uint64_t
localRoot(const net::Message &m)
{
    return m.parentId != 0 ? m.parentId : m.id;
}

/**
 * Per-request nominal CPU work of a tier. The model may also
 * *transform* the request: the drawn message is what the completion
 * handler (and the reply) sees, so a cache tier can mark a miss in
 * the opcode and stash the hit's value size in the byte count.
 * Mutation happens at dispatch, on the worker, in deterministic event
 * order; models taking a const message bind unchanged.
 */
using TierWork = std::function<Time(net::Message &, Rng &)>;

/** Per-request response wire size of a tier. */
using TierBytes = std::function<std::uint32_t(const net::Message &, Rng &)>;

/** Work model: every request costs exactly @p work. */
TierWork fixedWork(Time work);

/** fatal() naming @p field unless @p value >= 0 (a work time or a
 *  delay: negative ones would panic only mid-run, in the core). */
void requireNonNegative(const std::string &field, Time value);

/**
 * The lognormal distribution of a (mean, sd) work knob pair (sd 0 =
 * fixed); fatal() naming @p meanField unless @p mean > 0 and
 * @p sdField unless @p sd >= 0.
 */
Rng::Lognormal lognormalModel(Time mean, Time sd,
                              const std::string &meanField,
                              const std::string &sdField);

/** Work model: lognormal with the given mean / sd, checked as in
 *  lognormalModel(). */
TierWork lognormalWork(Time mean, Time sd, const std::string &meanField,
                       const std::string &sdField);

/** Tunables of one tier. */
struct TierParams
{
    std::string name = "tier";
    /** Worker threads, pinned one per core from firstCore. */
    int workers = 8;
    /** First core of the pool (tiers sharing a machine partition it). */
    int firstCore = 0;
    /** Nominal CPU work per request (required). */
    TierWork work;
    /** Track per-shard dispatch counts in TierBreakdown::shardRequests
     *  / shardWork with this many slots (0 = no tracking). */
    int trackShards = 0;
    /** Wire size of sub-requests sent *to* this tier by a Fanout. */
    std::uint32_t requestBytes = 0;
    /** Reply wire size when responseBytesFn is not set. */
    std::uint32_t responseBytes = 0;
    /** Per-request reply size override (e.g. sampled value bytes). */
    TierBytes responseBytesFn;
    /** CPU cost of the transmit syscall path, added to the work. */
    Time txWork = 0;
    /**
     * Whether the graph's per-run environment factor multiplies this
     * tier's work draws (the seed services scale leaf scans and stage
     * work, but not the HDSearch midtier's fixed parse/merge costs).
     */
    bool envSensitive = true;
    /**
     * Admission control at this tier's worker queues; off by
     * default. A shed request is counted (requestsShedDepth,
     * TierBreakdown::requestsShed) and silently
     * dropped — recovery is the sender's business, exactly like a
     * fault drop, so pair shedding with deadlines/retries when the
     * caller must not strand.
     */
    AdmissionPolicy admission{};
};

/** The one tier of a single-tier server (memcached, synthetic):
 *  "server" with @p workers workers, each reply also paying the CPU
 *  cost of the transmit syscall path. */
TierParams serverTier(int workers);

class Fanout;
class ServiceGraph;

/**
 * One tier of a service: a work model over one or more replica
 * instances, each a (machine, worker pool) pair. Message::replica
 * routes a request to its instance, so a replicated tier models what
 * replication means in a real cluster — independent servers with
 * independent queues — and a hedge sent to the backup replica does
 * not wait behind the primary's backlog.
 *
 * A request's path is the canonical server receive path — NIC IRQ
 * (sibling hardware thread under SMT) -> FIFO queue on the
 * connection's pinned worker -> service work -> handler. The default
 * handler replies to the service's client through the graph; fan-outs
 * and chains install their own.
 */
class Tier : public net::Endpoint
{
  public:
    /** Runs on the worker once a request's service work completes. */
    using Handler = std::function<void(const net::Message &msg, Time work)>;

    /** Replicated tier: one instance per host, routed by replica. */
    Tier(ServiceGraph &graph, std::vector<hw::Machine *> hosts,
         TierParams params);

    /** Single-instance tier on @p machine. */
    Tier(ServiceGraph &graph, hw::Machine &machine, TierParams params);

    /** Replace the completion handler (fan-out scatter, chain hop). */
    void setHandler(Handler handler) { handler_ = std::move(handler); }

    void onMessage(const net::Message &msg) override;

    /**
     * Reply this tier would send for @p msg: echoes the request with
     * isResponse set, the tier's response size, and the work spent.
     */
    net::Message makeReply(const net::Message &msg, Time work);

    /** Replica instances backing this tier. */
    int replicaCount() const
    {
        return static_cast<int>(instances_.size());
    }

    // ---- fault-injection hooks (used by fault::Injector) ----

    /**
     * Crash (@p up false) or restart (@p up true) a replica. While
     * down, arriving requests are dropped (a dead box accepts no
     * connections) and service work completing on the replica
     * produces no reply — both counted as requestsLost. Queued and
     * in-flight work is thereby dropped-or-error-completed, exactly
     * like a process kill.
     */
    void setReplicaUp(int replica, bool up);

    /** @return true while @p replica accepts and answers requests. */
    bool replicaUp(int replica) const;

    /**
     * Mark @p replica suspected-down (@p suspect true) as far as
     * senders are concerned. Failure *detection* is separate from
     * failure: an undetected crash keeps receiving (and losing)
     * traffic until the detector fires — the gap hedged and tied
     * requests close without any detector at all. Suspecting a
     * replica also tells the feeding fan-out, which re-issues the
     * sub-requests outstanding on it (Fanout::onReplicaDown).
     */
    void setReplicaSuspected(int replica, bool suspect);

    /**
     * @return true while senders should route to @p replica: not
     * suspected down (detection knowledge), regardless of whether it
     * is actually up (ground truth only the replica knows).
     */
    bool replicaTrusted(int replica) const;

    /** Index of this tier's TierBreakdown in the graph's stats. */
    int tierIndex() const { return tierIndex_; }

    WorkerPool &pool(int replica = 0);
    hw::Machine &machine(int replica = 0);
    const TierParams &params() const { return params_; }

  private:
    friend class Fanout;
    friend class ServiceGraph;

    struct Instance
    {
        hw::Machine *machine;
        WorkerPool pool;
        /**
         * Per-instance random stream (forked from the graph rng at
         * construction): work-model and response-size draws are a
         * property of the replica serving the request, so a replica's
         * stream does not depend on its siblings' traffic.
         */
        Rng rng;
        /** False while a crash fault holds the replica down. */
        bool up = true;
        /** True once the failure detector has flagged the replica. */
        bool suspected = false;
    };

    /** The instance serving @p msg (its replica field). */
    Instance &instanceFor(const net::Message &msg);

    /** Post-IRQ: draw the work and queue it on the pinned worker. */
    void dispatch(const net::Message &msg);

    /** Worker completion: route to the handler unless the replica
     *  died while the work was queued or running. */
    void completeService(const net::Message &msg, Time work);

    /** Count a request lost to a fault on this tier. */
    void countLost();

    /** Per-shard dispatch accounting (no-op unless trackShards). */
    void countShard(TierBreakdown &tb, const net::Message &msg,
                    Time work);

    /**
     * A fault dropped @p msg on this tier: let a covering retry of
     * the feeding fan-out absorb the loss (Fanout::absorbLoss), else
     * count it lost for good.
     */
    void noteLost(const net::Message &msg);

    /** Admission control: should @p msg be shed instead of queued
     *  (its worker queue is at maxQueueDepth)? Counts and traces the
     *  shed when it says yes. Runs before the work-model draw so a
     *  disabled policy leaves the RNG stream untouched. */
    bool shouldShed(Instance &inst, const net::Message &msg);

    ServiceGraph &graph_;
    TierParams params_;
    std::vector<std::unique_ptr<Instance>> instances_;
    Handler handler_;
    /**
     * The one fan-out scattering into this tier (null for the entry
     * tier and chain hops), set by its constructor. Its sub-request
     * ids are its context slots, so it alone can arbitrate tied
     * copies, absorb fault drops and fail over crashed replicas.
     */
    Fanout *feeder_ = nullptr;
    /** Set by ServiceGraph::addTier / addReplicatedTier. */
    int tierIndex_ = 0;
    /**
     * Flight recorder: messages on this tier carry the root request
     * id in (parentId ? parentId : id) — true for the entry tier and
     * direct fan-out children — so per-dispatch spans can be rooted.
     * Deeper tiers see fan-out slot ids there; their dispatch spans
     * are skipped (the lane's sub-request span still covers them).
     * Set by ServiceGraph::setTrace.
     */
    bool traceLocal_ = false;
};

/** Tunables of one scatter-gather fan-out edge. */
struct FanoutParams
{
    /** Shards every request scatters to (>= 1). */
    int shards = 1;
    /** Replicas per shard, in [1, 255] (replica ids ride 8-bit
     *  fields) and equal to the child tier's replica count; the
     *  primary is picked per (id, shard). */
    int replicas = 1;
    /** Hedge a shard's sub-request after this delay (0 = off under
     *  Auto; the pre-warmup fallback threshold under Adaptive). */
    Time hedgeDelay = 0;
    /** Hedging policy; Auto = Fixed when hedgeDelay > 0 else None. */
    HedgePolicy policy = HedgePolicy::Auto;
    /**
     * Single-shard routing (a sharded key-value tier): when set,
     * each request goes to route(req) % shards only, instead of
     * scattering to every shard — key-hash routing through the same
     * replica-selection, hedging and failover machinery. A routed
     * edge is keyed: sub-requests carry the parent's opcode, key and
     * wire size, and each shard is pinned to primary replica
     * shard % replicas (a shard's working set lives in one replica's
     * cache; hedges and retries still go to other replicas).
     */
    std::function<int(const net::Message &)> route;
    /** Parent-tier work per accepted shard reply (merge). */
    Time mergeWork = 0;
    /** Parent-tier work after the last shard reply (top-k, marshal). */
    Time postWork = 0;
    /** Link parameters of the parent <-> child hops. */
    net::Link::Params link{};
    /**
     * Traffic management on this edge: per-attempt deadlines with
     * budgeted retries (the sender's own recovery from sub-requests
     * swallowed by undetected crashes or shed by the child) and
     * per-replica circuit breakers. The admission half of a
     * TrafficPolicy lives on the *child tier* (TierParams::admission);
     * it is carried here too so shape-level plumbing can hand one
     * policy object down both paths.
     */
    TrafficPolicy traffic{};
};

/**
 * Scatter-gather RPC edge between a parent and a sharded child tier.
 * scatter() sends one sub-request per shard to its primary replica
 * and arms a hedge timer per shard when hedging is enabled; replies
 * merge on the parent's worker pool, and the parent completion
 * callback fires after the last shard's post-work.
 */
class Fanout
{
  public:
    /**
     * Fired on the parent worker after the last reply's post-work.
     * @p parent is the scattered request, except that its bytes
     * field carries the last accepted shard reply's wire size —
     * route-one completions echo the shard reply to the client.
     */
    using Complete = std::function<void(const net::Message &parent)>;

    /** fatal() naming the field on an out-of-range shard or replica
     *  count, a replica count other than @p child's,
     *  retry.maxAttempts, negative hedgeDelay or retry.deadline, or a
     *  hedging policy without a backup replica; fatal() naming the
     *  tiers when @p child already has a feeding fan-out. */
    Fanout(ServiceGraph &graph, Tier &parent, Tier &child,
           FanoutParams params, Complete onComplete);

    /**
     * Scatter sub-requests for @p req. Call from the parent tier's
     * worker (i.e. a Tier handler); @p req.id must be unique among
     * the parent's in-flight requests.
     */
    void scatter(const net::Message &req);

    /** Deterministic primary replica for a (request, shard) pair. */
    static int primaryReplica(std::uint64_t id, int shard, int replicas);

    /** The replica a hedge of (request, shard) is sent to. */
    static int hedgeReplica(std::uint64_t id, int shard, int replicas);

    /**
     * Send the child tier's reply for @p msg (with @p work spent on
     * it) back to the parent through this edge's merge path — the
     * default child handler in one call, for handler overrides that
     * only *sometimes* reply directly (a cache tier replies on a hit
     * and cascades to the backing store on a miss).
     */
    void replyFromChild(const net::Message &msg, Time work);

    /** Parents with outstanding shard replies (diagnostics). */
    std::size_t inFlight() const { return pool_.inUse(); }

    const FanoutParams &params() const { return params_; }

    /** Resolved hedging policy (Auto already normalised). */
    HedgePolicy policy() const { return policy_; }

    /** The child tier this edge scatters into. */
    Tier &child() { return child_; }

    /** The parent tier this edge scatters from. */
    Tier &parent() { return parent_; }

    /**
     * Threshold an Adaptive hedge would use right now: the streaming
     * p95 of observed sub-request round-trips once warmed up, the
     * configured hedgeDelay before that.
     */
    Time currentHedgeDelay() const;

    /** Streaming reply-latency estimator (diagnostics). */
    const stats::StreamingQuantile &replyQuantile() const
    {
        return replyP95_;
    }

  private:
    friend class ServiceGraph;
    friend class Tier;

    /** One shard lane of a call: where its copy went, how it stands,
     *  and the timers armed for it. */
    struct Lane
    {
        /** Armed hedge timer (Fixed / Adaptive). */
        EventHandle hedge;
        /** Armed per-attempt deadline timer (retries on). */
        EventHandle deadline;
        /** Replica currently assigned the primary copy. */
        std::uint8_t replica = 0;
        /** Tied: 0 = unclaimed, else the claiming replica + 1. */
        std::uint8_t claimedBy = 0;
        /** Attempts issued so far (retries on). */
        std::uint8_t attempts = 1;
        /** First reply accepted (later ones are losers). */
        bool done = false;
        /** The in-flight copy is known fault-dropped; a suppressed
         *  retry turns this into a terminal loss. */
        bool dropped = false;
    };

    struct RpcContext
    {
        net::Message request;
        /** Root request id of this call (flight recorder): the wire
         *  observer on the scatter link resolves sub-requests — whose
         *  parentId is the *parent's* id, a slot id for nested
         *  fan-outs — back to the root through it. */
        std::uint64_t rootId = 0;
        /** Slot occupied (stale replies validate against this plus
         *  the parent id). */
        bool active = false;
        /** Lanes whose merge has not completed yet. */
        int remaining = 0;
        /** Route-one target shard (single-lane contexts). */
        std::uint16_t routedShard = 0;
        /** One per lane (1 when routing, shards when scattering). */
        std::vector<Lane> lanes;
    };

    /** Lanes per context: 1 when routing, shards when scattering. */
    int laneCount() const { return params_.route ? 1 : params_.shards; }
    int laneToShard(const RpcContext &call, int lane) const
    {
        return params_.route ? call.routedShard : lane;
    }
    /** The lane of @p call that carries @p shard. */
    Lane &laneOf(RpcContext &call, int shard)
    {
        return call.lanes[params_.route ? 0
                                        : static_cast<std::size_t>(shard)];
    }

    /** True when hedge timers are armed (Fixed or Adaptive). */
    bool timedHedging() const
    {
        return policy_ == HedgePolicy::Fixed ||
               policy_ == HedgePolicy::Adaptive;
    }

    /** The context behind @p slot iff it is live for @p parentId. */
    RpcContext *lookup(std::uint32_t slot, std::uint64_t parentId);

    /** Primary replica of (id, shard) under this edge's routing
     *  (pinned shard -> replica, or the rotating default). */
    int primaryFor(std::uint64_t id, int shard) const;

    /** Replica a duplicate (hedge / tied twin) of (id, shard) goes
     *  to before liveness detours. */
    int backupFor(std::uint64_t id, int shard) const;

    /**
     * The one scan for the next trusted replica: the first of the
     * @p count replicas from @p from on (wrapping) that senders
     * trust and, when @p gated, whose breaker admits traffic —
     * breakerAllows runs on each trusted candidate in scan order,
     * because it counts probes and moves half-open state.
     * @return -1 when none qualifies.
     */
    int nextTrusted(int from, int count, bool gated);

    /**
     * Replica to send (req, shard)'s primary copy to, routing around
     * dead replicas (counts requestsFailedOver on a detour).
     * @p traceRoot, when non-zero, is the call's root request id and
     * enables the flight recorder's breaker-skip instants.
     * @return -1 when the whole child tier is down.
     */
    int routeLive(std::uint64_t id, int shard,
                  std::uint64_t traceRoot = 0);

    /**
     * Backup replica for a duplicate of (id, shard): the hedge
     * target, detoured to the next trusted replica when it is
     * suspected. @return -1 when no trusted replica distinct from
     * @p primary exists (a duplicate there could never win).
     */
    int liveBackup(std::uint64_t id, int shard, int primary);

    net::Message makeSub(const net::Message &req, std::uint32_t slot,
                         int shard, int replica, bool tied) const;
    void fireHedge(std::uint32_t slot, std::uint64_t parentId, int shard);

    /** Per-attempt deadline expired on (slot, shard): re-issue the
     *  sub-request if the attempt cap and retry budget allow. */
    void fireRetry(std::uint32_t slot, std::uint64_t parentId, int shard);

    /** Arm the per-attempt deadline timer of @p lane. */
    void armDeadline(Lane &lane, std::uint32_t slot,
                     std::uint64_t parentId, int shard);

    /** Breaker gate for @p replica (true when breakers are off).
     *  Counts half-open probes it admits. */
    bool breakerAllows(int replica);

    /** Failure evidence against @p replica (counts breaker opens). */
    void noteBreakerFailure(int replica);

    /**
     * Start-time admission of a tied copy, called by the child tier
     * on the worker at the instant the copy would begin execution.
     * A false return cancels it before any work runs. @p token is
     * the context slot (the sub-request's Message::id).
     */
    bool admitTied(std::uint32_t token, std::uint64_t parentId,
                   std::uint16_t shard, std::uint16_t replica);

    /**
     * The child tier's failure detector suspects @p replica (called
     * by Tier::setReplicaSuspected). Outstanding sub-requests
     * assigned to it are re-issued to a live replica (counted as
     * requestsFailedOver) — the simulated analogue of a connection
     * reset triggering a client retry.
     */
    void onReplicaDown(int replica);

    /**
     * A fault just dropped sub-request (or sub-reply) @p msg inside
     * the child tier. @return true when the retry layer absorbs the
     * loss — either the lane was already served by another copy, or
     * a per-attempt deadline timer is still pending, so the coming
     * fireRetry() (not this drop) decides whether the request is
     * terminally lost. Counted in subRequestsDropped either way.
     * Always false when deadlines/retries are off, keeping fault
     * accounting byte-identical to the pre-traffic behaviour.
     */
    bool absorbLoss(const net::Message &msg);

    void onReply(const net::Message &reply);
    void finish(const net::Message &req);

    /**
     * Flight recorder (called by ServiceGraph::setTrace): install
     * breaker observers and — when @p parentDepth <= 1, so the root
     * id is the message's parentId — wire observers on this edge's
     * links, and enable sub-request/hedge/retry spans.
     */
    void installTrace(int parentDepth);

    ServiceGraph &graph_;
    Tier &parent_;
    Tier &child_;
    FanoutParams params_;
    HedgePolicy policy_;
    Complete onComplete_;
    net::Link &toChild_;
    /**
     * One child->parent link per child replica instance. A link's
     * jitter draws happen at send time, so a link shared by every
     * replica would interleave the replicas' streams; one link per
     * replica keeps each stream a function of that replica's own
     * reply order.
     */
    std::vector<net::Link *> toParent_;
    /** Adapter delivering child replies back into onReply(). */
    std::unique_ptr<net::Endpoint> mergePort_;
    /**
     * In-flight contexts. Slot-pooled: the sub-request's Message::id
     * carries the slot index back in the reply, so the steady state
     * allocates nothing — no map nodes, and each context's lane
     * vector keeps its capacity across recycles (acquireSlot/release).
     */
    SlotPool<RpcContext> pool_;
    /** Streaming p95 of sub-request round-trips (Adaptive's input). */
    stats::StreamingQuantile replyP95_;
    /** Failover re-issues performed (legalises duplicate replies). */
    std::uint64_t reissues_ = 0;
    /** Traffic-management knobs of this edge (copied from params). */
    TrafficPolicy traffic_{};
    /** Deadlines/retries armed (traffic_.retry.enabled()). */
    bool retryEnabled_ = false;
    /** Token bucket limiting retry volume (kRetryBudgetRatio per
     *  primary send, burst kRetryBudgetBurst). */
    RetryBudget budget_;
    /** Per-replica breakers (empty when breakers are off). */
    std::vector<CircuitBreaker> breakers_;
    /** Flight recorder: sub-request/hedge/retry spans enabled (the
     *  parent tier's messages carry resolvable root ids). */
    bool traceSubs_ = false;
};

/**
 * The cluster of one service: owns its machines, tiers, fan-outs and
 * intra-cluster links, fronts the whole thing as a single Endpoint,
 * and keeps the ServiceStats. Construction order is deterministic, so
 * a graph's behaviour is fixed by the run seed.
 */
class ServiceGraph : public net::Endpoint
{
  public:
    /**
     * @param replyLink link carrying final responses to the client.
     * @param runVariability relative sd of the per-run environment
     *        factor multiplying env-sensitive tier work.
     */
    ServiceGraph(Simulator &sim, net::Link &replyLink,
                 net::Endpoint &client, Rng rng,
                 double runVariability = 0.0);

    /** Add a machine owned by the graph (seeded from the graph rng). */
    hw::Machine &addMachine(const hw::HwConfig &cfg,
                            const std::string &name);

    /** Add a tier hosted on @p machine (owned or external). */
    Tier &addTier(hw::Machine &machine, TierParams params);

    /**
     * Add a replicated tier: @p replicas graph-owned machines (named
     * "<name>", "<name>-r2", ...) each running the tier's pool.
     */
    Tier &addReplicatedTier(const hw::HwConfig &cfg, int replicas,
                            TierParams params);

    /** Add an intra-cluster link owned by the graph. */
    net::Link &addLink(net::Link::Params params);

    /**
     * Add a scatter-gather edge from @p parent to @p child. A tier is
     * fed by at most one fan-out: the Fanout constructor fatal()s
     * naming both parents when @p child already has one.
     */
    Fanout &addFanout(Tier &parent, Tier &child, FanoutParams params,
                      Fanout::Complete onComplete);

    /** Tier client requests enter at (counts requestsReceived). */
    void setEntry(Tier &tier) { entry_ = &tier; }

    /** Front door: client request arrives at the service. */
    void onMessage(const net::Message &req) override;

    /** Send @p resp to the client (counts it). */
    void respond(const net::Message &resp);

    /** This run's service-time environment factor. */
    double envFactor() const { return envFactor_; }

    // ---- fault-injection surface (used by fault::Injector) ----

    /** Tier by TierParams::name; nullptr when absent. */
    Tier *findTier(const std::string &name);

    /** Tiers in construction order (targeting / reports). */
    std::size_t tierCount() const { return tiers_.size(); }
    Tier &tier(std::size_t i) { return *tiers_.at(i); }

    /**
     * Count one request terminally lost on tier @p tierIndex — the
     * single bump site for both the graph total and the per-tier
     * breakdown, so requestsLost always equals the sum over tiers.
     */
    void countLost(int tierIndex);

    // ---- observability (flight recorder) ----

    /**
     * Install @p recorder as this run's flight recorder (nullptr
     * disables — the default, costing one pointer test per hook).
     * Call once the graph is fully built: per-dispatch and wire span
     * hooks are gated on the graph's fan-out depth, because resolving
     * a deep tier's root id needs the fan-out context pool. The
     * recorder must outlive the run.
     */
    void setTrace(obs::TraceRecorder *recorder);

    /** The run's flight recorder; nullptr when tracing is off. */
    obs::TraceRecorder *trace() const { return trace_; }

    const ServiceStats &stats() const { return stats_; }
    ServiceStats &mutableStats() { return stats_; }

    Simulator &sim() { return sim_; }
    Rng &rng() { return rng_; }

  private:
    /** Take ownership of @p tier, give it the next tier index and
     *  append its TierBreakdown (shard vectors sized by trackShards). */
    Tier &registerTier(std::unique_ptr<Tier> tier);

    Simulator &sim_;
    net::Link &replyLink_;
    net::Endpoint &client_;
    Rng rng_;
    double envFactor_ = 1.0;
    Tier *entry_ = nullptr;
    std::vector<std::unique_ptr<hw::Machine>> machines_;
    std::vector<std::unique_ptr<Tier>> tiers_;
    std::vector<std::unique_ptr<net::Link>> links_;
    std::vector<std::unique_ptr<Fanout>> fanouts_;
    /** Flight recorder of the current run (null = tracing off). */
    obs::TraceRecorder *trace_ = nullptr;
    ServiceStats stats_;
};

} // namespace svc
} // namespace tpv

#endif // TPV_SVC_TOPOLOGY_HH
