#include "svc/topology.hh"

#include <algorithm>
#include <utility>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace tpv {
namespace svc {

namespace {

/** Largest replica count: replicas ride 8-bit message/lane fields. */
constexpr int kMaxReplicas = 255;

/** Largest retry.maxAttempts: attempts are an 8-bit lane counter. */
constexpr int kMaxAttempts = 255;

/** Retry budget: retries earned per primary sub-request sent (the
 *  classic 10%-retry-budget rule) and the bucket's burst. */
constexpr double kRetryBudgetRatio = 0.1;
constexpr double kRetryBudgetBurst = 16.0;

/** Generic endpoint adapter: forwards delivered messages to a bound
 *  function. Replaces the per-service Port/Merge adapter structs. */
class PortEndpoint : public net::Endpoint
{
  public:
    using Fn = std::function<void(const net::Message &)>;

    explicit PortEndpoint(Fn fn) : fn_(std::move(fn)) {}

    void
    onMessage(const net::Message &m) override
    {
        fn_(m);
    }

  private:
    Fn fn_;
};

} // namespace

const char *
toString(HedgePolicy p)
{
    switch (p) {
      case HedgePolicy::Auto:
        return "auto";
      case HedgePolicy::None:
        return "none";
      case HedgePolicy::Fixed:
        return "fixed";
      case HedgePolicy::Adaptive:
        return "adaptive";
      case HedgePolicy::Tied:
        return "tied";
    }
    return "?";
}

HedgePolicy
resolveHedgePolicy(HedgePolicy p, Time hedgeDelay)
{
    if (p != HedgePolicy::Auto)
        return p;
    return hedgeDelay > 0 ? HedgePolicy::Fixed : HedgePolicy::None;
}

std::string
TopologyShape::label() const
{
    std::string out = "s";
    out += std::to_string(shards);
    if (replicas > 1) {
        out += 'r';
        out += std::to_string(replicas);
    }
    const HedgePolicy resolved = resolveHedgePolicy(policy, hedgeDelay);
    switch (resolved) {
      case HedgePolicy::Auto:
      case HedgePolicy::None:
        break;
      case HedgePolicy::Fixed:
        out += "+h";
        out += std::to_string(static_cast<long long>(toUsec(hedgeDelay)));
        out += "us";
        break;
      case HedgePolicy::Adaptive:
        out += "+ah";
        out += std::to_string(static_cast<long long>(toUsec(hedgeDelay)));
        out += "us";
        break;
      case HedgePolicy::Tied:
        out += "+tied";
        break;
    }
    out += traffic.label();
    if (cache.enabled()) {
        out += '+';
        out += cache.label();
    }
    return out;
}

TierWork
fixedWork(Time work)
{
    return [work](const net::Message &, Rng &) { return work; };
}

void
requireNonNegative(const std::string &field, Time value)
{
    if (value < 0)
        fatal(field, " must be >= 0, got ", value);
}

Rng::Lognormal
lognormalModel(Time mean, Time sd, const std::string &meanField,
               const std::string &sdField)
{
    if (mean <= 0)
        fatal(meanField, " must be > 0, got ", mean);
    requireNonNegative(sdField, sd);
    return Rng::Lognormal(static_cast<double>(mean),
                          static_cast<double>(sd));
}

TierWork
lognormalWork(Time mean, Time sd, const std::string &meanField,
              const std::string &sdField)
{
    const Rng::Lognormal dist = lognormalModel(mean, sd, meanField, sdField);
    return [dist](const net::Message &, Rng &rng) {
        return static_cast<Time>(rng.lognormal(dist));
    };
}

TierParams
serverTier(int workers)
{
    TierParams p;
    p.name = "server";
    p.workers = workers;
    p.txWork = nsec(500);
    return p;
}

Tier::Tier(ServiceGraph &graph, std::vector<hw::Machine *> hosts,
           TierParams params)
    : graph_(graph), params_(std::move(params))
{
    if (hosts.empty())
        fatal("Tier hosts must hold at least one machine (tier '",
              params_.name, "')");
    if (!params_.work)
        fatal("TierParams::work must be set (tier '", params_.name, "')");
    if (params_.admission.maxQueueDepth < 0) {
        fatal("TierParams::admission.maxQueueDepth must be >= 0 (0 = "
              "off), got ",
              params_.admission.maxQueueDepth);
    }
    for (hw::Machine *m : hosts) {
        instances_.push_back(std::make_unique<Instance>(Instance{
            m, WorkerPool(*m, params_.workers, params_.firstCore),
            graph.rng().fork()}));
    }
}

Tier::Tier(ServiceGraph &graph, hw::Machine &machine, TierParams params)
    : Tier(graph, std::vector<hw::Machine *>{&machine}, std::move(params))
{
}

WorkerPool &
Tier::pool(int replica)
{
    return instances_.at(static_cast<std::size_t>(replica))->pool;
}

hw::Machine &
Tier::machine(int replica)
{
    return *instances_.at(static_cast<std::size_t>(replica))->machine;
}

Tier::Instance &
Tier::instanceFor(const net::Message &msg)
{
    // Client requests carry replica 0; sub-requests carry a replica
    // below the feeder's count, which equals this tier's.
    return *instances_[msg.replica];
}

void
Tier::setReplicaUp(int replica, bool up)
{
    instances_.at(static_cast<std::size_t>(replica))->up = up;
}

bool
Tier::replicaUp(int replica) const
{
    return instances_[static_cast<std::size_t>(replica)]->up;
}

void
Tier::setReplicaSuspected(int replica, bool suspect)
{
    instances_.at(static_cast<std::size_t>(replica))->suspected =
        suspect;
    if (suspect && feeder_ != nullptr)
        feeder_->onReplicaDown(replica);
}

bool
Tier::replicaTrusted(int replica) const
{
    return !instances_[static_cast<std::size_t>(replica)]->suspected;
}

void
Tier::countLost()
{
    graph_.countLost(tierIndex_);
}

void
Tier::countShard(TierBreakdown &tb, const net::Message &msg, Time work)
{
    if (tb.shardRequests.empty())
        return;
    const auto s = static_cast<std::size_t>(msg.shard) %
                   tb.shardRequests.size();
    ++tb.shardRequests[s];
    tb.shardWork[s] += work;
}

void
Tier::noteLost(const net::Message &msg)
{
    // Only the feeding fan-out can own the message: its sub-request
    // ids are that fan-out's context slots.
    if (feeder_ != nullptr && feeder_->absorbLoss(msg))
        return;
    countLost();
}

bool
Tier::shouldShed(Instance &inst, const net::Message &msg)
{
    if (inst.pool.serviceThread(msg.conn).queued() <
        static_cast<std::size_t>(params_.admission.maxQueueDepth))
        return false;
    ServiceStats &stats = graph_.mutableStats();
    ++stats.requestsShedDepth;
    ++stats.tiers[static_cast<std::size_t>(tierIndex_)].requestsShed;
    if (obs::TraceRecorder *tr = graph_.trace();
        tr != nullptr && traceLocal_) {
        tr->instant(obs::SpanKind::Shed, graph_.sim().now(), localRoot(msg),
                    {tierIndex_, msg.shard, msg.replica}, 1);
    }
    return true;
}

void
Tier::onMessage(const net::Message &msg)
{
    // A crashed replica accepts no connections: the request dies on
    // the wire, and recovery is the sender's business (fan-out
    // failover, client timeout) — exactly as in a real cluster.
    Instance &inst = instanceFor(msg);
    if (!inst.up) {
        noteLost(msg);
        return;
    }
    // Receive path: IRQ/softirq work on the connection's IRQ thread
    // (sibling hardware thread when SMT is on), then hand off to the
    // pinned worker.
    inst.machine->deliverIrq(inst.pool.irqThreadIndex(msg.conn),
                             inst.machine->config().irqWork,
                             [this, msg] { dispatch(msg); });
}

void
Tier::dispatch(const net::Message &msgIn)
{
    Instance &inst = instanceFor(msgIn);
    if (!inst.up) {
        // The replica died between IRQ and dispatch.
        noteLost(msgIn);
        return;
    }
    // Admission control runs before the work-model draw: a disabled
    // (or non-shedding) policy must leave the RNG stream untouched so
    // traffic knobs default to bit-identical behaviour.
    if (params_.admission.enabled() && shouldShed(inst, msgIn))
        return;
    // The work model may transform the request the handler and reply
    // will see (a cache tier); msg is the post-transform message from
    // here on. The copy is what every capture below took anyway.
    // Work draws come from the serving instance's own stream (forked
    // at construction), so replicas never reorder one generator.
    net::Message msg = msgIn;
    Time work = params_.work(msg, inst.rng);
    if (params_.envSensitive) {
        work = static_cast<Time>(graph_.envFactor() *
                                 static_cast<double>(work));
    }
    // Flight recorder: open the dispatch->completion span (split into
    // queue-wait + service at close). Keyed on the post-transform
    // message so completeService — which sees the same transformed
    // message — closes the exact begin. Tied twins differ in replica,
    // so their keys never collide; a twin cancelled before running
    // leaves a dangling open that export simply drops.
    if (obs::TraceRecorder *tr = graph_.trace();
        tr != nullptr && traceLocal_) {
        tr->begin({msg.id, msg.parentId, obs::SpanKind::Service,
                   {tierIndex_, msg.shard, msg.replica}},
                  graph_.sim().now(), localRoot(msg));
    }
    ServiceStats &stats = graph_.mutableStats();
    if (msg.tied) {
        // Tied copy (only the feeding fan-out sends them): the feeder
        // decides admission at execution start, so the work
        // accounting moves into the completion (it only runs if this
        // copy won the claim race). The guard re-checks replica
        // liveness so a copy queued on a replica that dies before it
        // runs can never claim the request and strand its twin.
        inst.pool.serviceThread(msg.conn).submitGuarded(
            work + params_.txWork,
            [this, msg, work] {
                ServiceStats &s = graph_.mutableStats();
                s.serviceWorkDispatched += work;
                TierBreakdown &tb =
                    s.tiers[static_cast<std::size_t>(tierIndex_)];
                ++tb.requestsDispatched;
                tb.workDispatched += work;
                countShard(tb, msg, work);
                completeService(msg, work);
            },
            // Capture order packs the guard into its 24-byte budget
            // (8-byte members first, no alignment padding).
            [this, parent = msg.parentId,
             token = static_cast<std::uint32_t>(msg.id),
             shard = msg.shard, replica = msg.replica] {
                if (!replicaUp(replica))
                    return false;
                return feeder_->admitTied(token, parent, shard, replica);
            });
        return;
    }
    stats.serviceWorkDispatched += work;
    TierBreakdown &tb =
        stats.tiers[static_cast<std::size_t>(tierIndex_)];
    ++tb.requestsDispatched;
    tb.workDispatched += work;
    countShard(tb, msg, work);
    inst.pool.serviceThread(msg.conn).submit(
        work + params_.txWork,
        [this, msg, work] { completeService(msg, work); });
}

void
Tier::completeService(const net::Message &msg, Time work)
{
    if (!instanceFor(msg).up) {
        // The replica died while the work was queued or running: the
        // reply dies with it (in-flight requests error-complete).
        noteLost(msg);
        return;
    }
    // Flight recorder: close the dispatch->completion span into a
    // queue-wait span and a service span. The service start is
    // derived as completion minus the nominal work (txWork and any
    // worker preemption land in the queue-wait part — documented
    // approximation), clamped so a zero-queue dispatch never yields
    // a negative wait.
    if (obs::TraceRecorder *tr = graph_.trace();
        tr != nullptr && traceLocal_) {
        const obs::SpanSite site{tierIndex_, msg.shard, msg.replica};
        Time start = 0;
        std::uint64_t root = 0;
        if (tr->end({msg.id, msg.parentId, obs::SpanKind::Service, site},
                    &start, &root)) {
            const Time now = graph_.sim().now();
            const Time svcStart = std::max(start, now - work);
            tr->span(obs::SpanKind::QueueWait, start, svcStart, root, site);
            tr->span(obs::SpanKind::Service, svcStart, now, root, site,
                     static_cast<std::uint32_t>(
                         std::min<Time>(work, UINT32_MAX)));
        }
    }
    if (handler_)
        handler_(msg, work);
    else
        graph_.respond(makeReply(msg, work));
}

net::Message
Tier::makeReply(const net::Message &msg, Time work)
{
    net::Message resp = msg;
    resp.isResponse = true;
    resp.bytes = params_.responseBytesFn
                     ? params_.responseBytesFn(msg, instanceFor(msg).rng)
                     : params_.responseBytes;
    resp.serviceWork = static_cast<std::uint32_t>(work);
    return resp;
}

Fanout::Fanout(ServiceGraph &graph, Tier &parent, Tier &child,
               FanoutParams params, Complete onComplete)
    : graph_(graph), parent_(parent), child_(child),
      params_(std::move(params)),
      policy_(resolveHedgePolicy(params_.policy, params_.hedgeDelay)),
      onComplete_(std::move(onComplete)),
      toChild_(graph.addLink(params_.link)),
      mergePort_(std::make_unique<PortEndpoint>(
          [this](const net::Message &m) { onReply(m); })),
      replyP95_(0.95)
{
    // User configuration: reject what would otherwise wrap an 8-bit
    // field or build a shape that can never work.
    if (params_.shards < 1) {
        fatal("FanoutParams::shards must be >= 1 (a fanout needs at "
              "least one shard), got ",
              params_.shards);
    }
    if (params_.replicas < 1 || params_.replicas > kMaxReplicas) {
        fatal("FanoutParams::replicas must be in [1, ", kMaxReplicas,
              "], got ", params_.replicas);
    }
    if (params_.hedgeDelay < 0) {
        fatal("FanoutParams::hedgeDelay must be >= 0, got ",
              params_.hedgeDelay);
    }
    // A duplicate to the only replica would share the primary's
    // worker queue and could never win — reject the degenerate shape
    // instead of reporting meaningless hedge/tie counters.
    if (policy_ != HedgePolicy::None && params_.replicas < 2) {
        fatal("FanoutParams::policy '", toString(policy_),
              "' needs a backup replica (replicas >= 2), got replicas ",
              params_.replicas);
    }
    // Lane replicas index the child's instances one to one: the
    // failover scan wraps modulo the replica count, and each child
    // replica replies over its own link.
    if (params_.replicas != child_.replicaCount()) {
        fatal("FanoutParams::replicas must equal the replica count of "
              "tier '",
              child_.params().name, "' (", child_.replicaCount(),
              "), got ", params_.replicas);
    }
    if (timedHedging() && params_.hedgeDelay == 0) {
        fatal("FanoutParams::hedgeDelay must be positive under the '",
              toString(policy_),
              "' policy (adaptive uses it until the estimator warms up)");
    }
    TPV_ASSERT(static_cast<bool>(onComplete_),
               "fanout needs a completion callback");
    traffic_ = params_.traffic;
    if (traffic_.retry.deadline < 0) {
        fatal("FanoutParams::traffic.retry.deadline must be >= 0, got ",
              traffic_.retry.deadline);
    }
    retryEnabled_ = traffic_.retry.enabled();
    if (retryEnabled_) {
        if (traffic_.retry.maxAttempts < 1 ||
            traffic_.retry.maxAttempts > kMaxAttempts) {
            fatal("FanoutParams::traffic.retry.maxAttempts must be in "
                  "[1, ",
                  kMaxAttempts, "], got ", traffic_.retry.maxAttempts);
        }
        budget_ = RetryBudget(kRetryBudgetRatio, kRetryBudgetBurst);
    }
    if (traffic_.breaker.failureThreshold < 0) {
        fatal("FanoutParams::traffic.breaker.failureThreshold must be "
              ">= 0 (0 = off), got ",
              traffic_.breaker.failureThreshold);
    }
    if (traffic_.breaker.enabled()) {
        // A breaker with no cooldown re-admits the moment it opens.
        if (traffic_.breaker.cooldown <= 0) {
            fatal("FanoutParams::traffic.breaker.cooldown must be > 0 "
                  "while the breaker is on, got ",
                  traffic_.breaker.cooldown);
        }
        breakers_.assign(static_cast<std::size_t>(params_.replicas),
                         CircuitBreaker(traffic_.breaker));
    }
    // One child->parent link per child replica, so replicas never
    // interleave one link's jitter stream.
    toParent_.reserve(static_cast<std::size_t>(params_.replicas));
    for (int r = 0; r < params_.replicas; ++r)
        toParent_.push_back(&graph.addLink(params_.link));
    // Pre-size the context pool and warm each context's lane vector,
    // so scatter's assign() recycles capacity from the first query on
    // instead of growing fresh slots as the in-flight high-water mark
    // creeps up (bench/hotpath gates on zero steady-state
    // allocations). The reservation leaves the slot acquisition
    // sequence — and with it the sub-request ids riding slot indices
    // — bit-identical to an unreserved pool's. Loads past ~256
    // in-flight calls (sustained overload) still grow.
    constexpr std::size_t kReservedContexts = 256;
    pool_.reserve(kReservedContexts);
    const auto lanes = static_cast<std::size_t>(laneCount());
    for (std::uint32_t i = 0; i < kReservedContexts; ++i)
        pool_.at(i).lanes.assign(lanes, Lane{});
    // A second edge would take over the child's reply handler and
    // strand the first edge's sub-requests.
    if (child_.feeder_ != nullptr) {
        fatal("Fanout: tier '", child_.params().name,
              "' is already fed by a fan-out from tier '",
              child_.feeder_->parent().params().name,
              "'; a second fan-out from tier '", parent_.params().name,
              "' is not supported");
    }
    // Child replies route through this fan-out's merge port, and the
    // child reaches back here for tied admission, fault drops and
    // crash failover.
    child_.setHandler([this](const net::Message &msg, Time work) {
        replyFromChild(msg, work);
    });
    child_.feeder_ = this;
}

int
Fanout::primaryReplica(std::uint64_t id, int shard, int replicas)
{
    if (replicas <= 1)
        return 0;
    // Deterministic and balanced: successive requests rotate which
    // replica serves a given shard (SplitMix64-style mix so shard and
    // id perturb independently).
    std::uint64_t h = id + 0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(shard) + 1);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return static_cast<int>(h % static_cast<std::uint64_t>(replicas));
}

int
Fanout::hedgeReplica(std::uint64_t id, int shard, int replicas)
{
    return (primaryReplica(id, shard, replicas) + 1) % std::max(replicas, 1);
}

int
Fanout::primaryFor(std::uint64_t id, int shard) const
{
    // A routed (keyed) edge pins each shard to one replica, so a
    // shard's working set lives in one cache.
    if (params_.route)
        return shard % params_.replicas;
    return primaryReplica(id, shard, params_.replicas);
}

int
Fanout::backupFor(std::uint64_t id, int shard) const
{
    return (primaryFor(id, shard) + 1) % std::max(params_.replicas, 1);
}

void
Fanout::replyFromChild(const net::Message &msg, Time work)
{
    toParent_[msg.replica]->send(child_.makeReply(msg, work), *mergePort_);
}

net::Message
Fanout::makeSub(const net::Message &req, std::uint32_t slot, int shard,
                int replica, bool tied) const
{
    net::Message sub;
    // The sub-request id is this fan-out's context slot: the child
    // echoes it, so the reply indexes straight into the pool — no
    // map lookup, no per-query map node. The parent id disambiguates
    // recycled slots.
    sub.id = slot;
    sub.parentId = req.id;
    sub.shard = static_cast<std::uint16_t>(shard);
    // The replica field routes the sub-request to its tier instance;
    // within an instance the connection spreads shards across workers
    // (parent connection in the high bits so related shards differ).
    sub.replica = static_cast<std::uint8_t>(replica);
    sub.conn = static_cast<std::uint16_t>(
        req.conn * static_cast<std::uint32_t>(params_.shards) +
        static_cast<std::uint32_t>(shard));
    if (params_.route) {
        // Keyed tiers act on the opcode/key, and the sub-request's
        // wire size is the keyed request's own (header + key, + value
        // for a SET) instead of the tier's flat estimate.
        sub.kind = req.kind;
        sub.key = req.key;
        sub.bytes = req.bytes;
    } else {
        sub.bytes = child_.params().requestBytes;
    }
    sub.tied = tied;
    sub.appSendTime = graph_.sim().now();
    return sub;
}

Fanout::RpcContext *
Fanout::lookup(std::uint32_t slot, std::uint64_t parentId)
{
    if (slot >= pool_.capacity())
        return nullptr;
    RpcContext &call = pool_.at(slot);
    if (!call.active || call.request.id != parentId)
        return nullptr;
    return &call;
}

int
Fanout::nextTrusted(int from, int count, bool gated)
{
    for (int i = 0; i < count; ++i) {
        const int r = (from + i) % params_.replicas;
        if (child_.replicaTrusted(r) && (!gated || breakerAllows(r)))
            return r;
    }
    return -1;
}

int
Fanout::routeLive(std::uint64_t id, int shard, std::uint64_t traceRoot)
{
    const int primary = primaryFor(id, shard);
    if (child_.replicaTrusted(primary)) {
        if (breakerAllows(primary))
            return primary;
        // Open breaker on a trusted primary: prefer another trusted
        // replica whose breaker admits traffic. When every candidate
        // is blocked, send to the primary anyway — a breaker shifts
        // load, it must never self-inflict a total outage.
        const int r = nextTrusted(primary + 1, params_.replicas - 1, true);
        if (r < 0)
            return primary;
        ++graph_.mutableStats().breakerSkips;
        if (traceRoot != 0) {
            graph_.trace()->instant(obs::SpanKind::BreakerSkip,
                                    graph_.sim().now(), traceRoot,
                                    {child_.tierIndex(), shard, primary},
                                    static_cast<std::uint32_t>(r));
        }
        return r;
    }
    const int alive = nextTrusted(primary + 1, params_.replicas, false);
    if (alive >= 0) {
        // Detected-dead primary: route around it, as a client whose
        // failure detector has flagged the box would.
        ++graph_.mutableStats().requestsFailedOver;
        ++reissues_;
    }
    return alive;
}

int
Fanout::liveBackup(std::uint64_t id, int shard, int primary)
{
    const int r = nextTrusted(backupFor(id, shard), params_.replicas, false);
    return r == primary ? -1 : r;
}

Time
Fanout::currentHedgeDelay() const
{
    // Until the estimator has a stable tail, hedge at the configured
    // fallback; afterwards at the observed p95, floored so a
    // collapsing estimate cannot degenerate into hedging everything
    // instantly.
    if (policy_ != HedgePolicy::Adaptive || replyP95_.count() < 32)
        return params_.hedgeDelay;
    return std::max<Time>(static_cast<Time>(replyP95_.estimate()),
                          usec(10));
}

void
Fanout::scatter(const net::Message &req)
{
    const std::uint32_t slot = pool_.acquireSlot();
    RpcContext &call = pool_.at(slot);
    const auto lanes = static_cast<std::size_t>(laneCount());
    call.request = req;
    call.rootId = localRoot(req);
    call.active = true;
    call.remaining = static_cast<int>(lanes);
    call.lanes.assign(lanes, Lane{});
    if (params_.route) {
        const int routed = params_.route(req);
        TPV_ASSERT(routed >= 0 && routed < params_.shards,
                   "route() returned an out-of-range shard: ", routed);
        call.routedShard = static_cast<std::uint16_t>(routed);
    }

    // Flight recorder: trace this call when the edge is depth-gated
    // on (traceSubs_) and the root is wanted. The sub-request span
    // opens here (the scatter instant) and closes on the first
    // accepted reply in onReply.
    obs::TraceRecorder *tr = traceSubs_ ? graph_.trace() : nullptr;
    const std::uint64_t traceRoot =
        tr != nullptr && tr->wants(call.rootId) ? call.rootId : 0;

    const Time hedgeDelay = timedHedging() ? currentHedgeDelay() : 0;
    for (std::size_t i = 0; i < lanes; ++i) {
        Lane &lane = call.lanes[i];
        const int shard = laneToShard(call, static_cast<int>(i));
        const int replica = routeLive(req.id, shard, traceRoot);
        if (replica < 0) {
            // Every replica is down: nothing was sent, the request
            // is lost. Close the lane so a later crash notification
            // cannot mistake it for an outstanding sub-request and
            // resurrect an already-lost lane.
            graph_.countLost(child_.tierIndex());
            lane.done = true;
            continue;
        }
        lane.replica = static_cast<std::uint8_t>(replica);
        if (traceRoot != 0) {
            tr->begin({slot, req.id, obs::SpanKind::SubRequest,
                       {child_.tierIndex(), shard}},
                      graph_.sim().now(), traceRoot);
        }
        ++graph_.mutableStats().subRequestsSent;
        const bool tiedCopies = policy_ == HedgePolicy::Tied;
        toChild_.send(makeSub(req, slot, shard, replica, tiedCopies),
                      child_);
        if (retryEnabled_) {
            budget_.earn();
            armDeadline(lane, slot, req.id, shard);
        }
        if (tiedCopies) {
            // The tied twin goes to the next replica immediately;
            // whichever copy starts first claims the request.
            const int twin = liveBackup(req.id, shard, replica);
            if (twin >= 0) {
                ++graph_.mutableStats().tiedSent;
                toChild_.send(makeSub(req, slot, shard, twin, true),
                              child_);
            }
        } else if (hedgeDelay > 0) {
            lane.hedge = graph_.sim().schedule(
                hedgeDelay,
                [this, id = req.id, slot, shard] {
                    fireHedge(slot, id, shard);
                });
        }
    }
}

void
Fanout::fireHedge(std::uint32_t slot, std::uint64_t parentId, int shard)
{
    RpcContext *call = lookup(slot, parentId);
    if (call == nullptr || laneOf(*call, shard).done)
        return; // the shard answered between arming and firing
    const int replica =
        liveBackup(parentId, shard, laneOf(*call, shard).replica);
    if (replica < 0)
        return; // no live backup distinct from the primary: useless
    ++graph_.mutableStats().hedgesSent;
    if (obs::TraceRecorder *tr = traceSubs_ ? graph_.trace() : nullptr) {
        tr->instant(obs::SpanKind::Hedge, graph_.sim().now(), call->rootId,
                    {child_.tierIndex(), shard, replica});
    }
    toChild_.send(makeSub(call->request, slot, shard, replica, false),
                  child_);
}

void
Fanout::armDeadline(Lane &lane, std::uint32_t slot, std::uint64_t parentId,
                    int shard)
{
    lane.deadline = graph_.sim().schedule(
        traffic_.retry.deadline, [this, parentId, slot, shard] {
            fireRetry(slot, parentId, shard);
        });
}

void
Fanout::fireRetry(std::uint32_t slot, std::uint64_t parentId, int shard)
{
    RpcContext *call = lookup(slot, parentId);
    if (call == nullptr)
        return; // the whole request completed and retired
    Lane &lane = laneOf(*call, shard);
    if (lane.done)
        return; // a reply beat the deadline after all
    // The attempt timed out: that is failure evidence against the
    // replica it was assigned to, whether the copy died in a crash,
    // was shed, or is merely stuck in queue.
    noteBreakerFailure(lane.replica);
    ServiceStats &stats = graph_.mutableStats();
    if (lane.attempts >= traffic_.retry.maxAttempts ||
        !budget_.tryAcquire()) {
        ++stats.retriesSuppressed;
        if (lane.dropped) {
            // The in-flight copy is known fault-dropped and no retry
            // will replace it: the loss is now terminal.
            lane.dropped = false;
            graph_.countLost(child_.tierIndex());
        }
        return;
    }
    // Retry target: the next trusted replica (breaker permitting)
    // after the one that timed out, the same replica when it is the
    // only candidate left (it may have restarted by now).
    const int next = nextTrusted(lane.replica + 1, params_.replicas, true);
    const int target = next < 0 ? lane.replica : next;
    ++lane.attempts;
    lane.dropped = false;
    lane.replica = static_cast<std::uint8_t>(target);
    ++stats.requestsRetried;
    if (obs::TraceRecorder *tr = traceSubs_ ? graph_.trace() : nullptr) {
        tr->instant(obs::SpanKind::Retry, graph_.sim().now(), call->rootId,
                    {child_.tierIndex(), shard, target}, lane.attempts);
    }
    // A retry racing its own original can produce a duplicate reply:
    // reissues_ legalises it for the duplicate-discard assertion.
    ++reissues_;
    toChild_.send(makeSub(call->request, slot, shard, target, false),
                  child_);
    armDeadline(lane, slot, parentId, shard);
}

bool
Fanout::absorbLoss(const net::Message &msg)
{
    if (!retryEnabled_)
        return false;
    RpcContext *call =
        lookup(static_cast<std::uint32_t>(msg.id), msg.parentId);
    if (call == nullptr)
        return false;
    Lane &lane = laneOf(*call, msg.shard);
    if (lane.done) {
        // A loser copy (hedge, tied twin, stale retry) died with the
        // fault after the lane was already served: nothing the client
        // cares about was lost.
        ++graph_.mutableStats().subRequestsDropped;
        return true;
    }
    if (!graph_.sim().pending(lane.deadline))
        return false;
    // A deadline timer covers this lane: the coming fireRetry() (or
    // its suppression) decides whether the loss becomes terminal.
    lane.dropped = true;
    ++graph_.mutableStats().subRequestsDropped;
    return true;
}

bool
Fanout::breakerAllows(int replica)
{
    if (breakers_.empty())
        return true;
    CircuitBreaker &br = breakers_[static_cast<std::size_t>(replica)];
    const auto before = br.state();
    const bool ok = br.allow(graph_.sim().now());
    if (ok && before != CircuitBreaker::State::Closed)
        ++graph_.mutableStats().breakerProbes;
    return ok;
}

void
Fanout::noteBreakerFailure(int replica)
{
    if (breakers_.empty())
        return;
    CircuitBreaker &br = breakers_[static_cast<std::size_t>(replica)];
    if (br.onFailure(graph_.sim().now()))
        ++graph_.mutableStats().breakerOpens;
}

bool
Fanout::admitTied(std::uint32_t token, std::uint64_t parentId,
                  std::uint16_t shard, std::uint16_t replica)
{
    RpcContext *call = lookup(token, parentId);
    Lane *lane = call != nullptr ? &laneOf(*call, shard) : nullptr;
    if (lane == nullptr || lane->done || lane->claimedBy != 0) {
        // The twin already claimed (or the call retired): this copy
        // is cancelled before any service work ran.
        ++graph_.mutableStats().tiedCancelledBeforeRun;
        return false;
    }
    lane->claimedBy = static_cast<std::uint8_t>(replica + 1);
    return true;
}

void
Fanout::onReplicaDown(int replica)
{
    // The replica is already suspected, so the scan skips it.
    const int target = nextTrusted(replica + 1, params_.replicas, false);
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(pool_.capacity()); ++slot) {
        RpcContext &call = pool_.at(slot);
        if (!call.active)
            continue;
        for (std::size_t i = 0; i < call.lanes.size(); ++i) {
            Lane &lane = call.lanes[i];
            if (lane.done)
                continue;
            // Tied: a lane whose *claimer* died needs help (reopen
            // the claim so a still-queued twin may run); a lane
            // claimed by a live replica is already running. An
            // unclaimed lane usually has a live twin queued — a dead
            // replica's copy can never claim — but re-issue its
            // primary anyway: if the twin was never sent (every
            // backup suspected), the re-issue is the only copy left,
            // and otherwise the duplicate is discarded by
            // first-reply-wins. Other policies never claim, so only
            // the primary's replica decides.
            if (lane.claimedBy == replica + 1)
                lane.claimedBy = 0; // reopen the claim
            else if (lane.claimedBy != 0 || lane.replica != replica)
                continue;
            const int shard = laneToShard(call, static_cast<int>(i));
            if (target < 0) {
                // No trusted replica to re-issue to. A pending
                // deadline timer still covers the lane — its retry
                // (to a possibly-restarted replica) or suppression
                // decides the loss; otherwise it is terminal now.
                if (retryEnabled_ && graph_.sim().pending(lane.deadline)) {
                    lane.dropped = true;
                    ++graph_.mutableStats().subRequestsDropped;
                } else {
                    graph_.countLost(child_.tierIndex());
                }
                continue;
            }
            // Connection-reset recovery: re-issue the sub-request to
            // a live replica. A duplicate reply (the dead replica's
            // work resurfacing after a restart, or a racing hedge)
            // is discarded by the usual first-reply-wins rule.
            lane.replica = static_cast<std::uint8_t>(target);
            lane.dropped = false;
            ++graph_.mutableStats().requestsFailedOver;
            ++reissues_;
            toChild_.send(makeSub(call.request, slot, shard, target,
                                  false),
                          child_);
        }
    }
}

void
Fanout::onReply(const net::Message &reply)
{
    // Every reply teaches the streaming estimator, losers included —
    // they are real observations of the tier's service behaviour.
    // Only the consumer of the estimate (Adaptive hedging) pays for
    // the update: this is a per-reply hot path.
    if (policy_ == HedgePolicy::Adaptive) {
        replyP95_.observe(static_cast<double>(graph_.sim().now() -
                                              reply.appSendTime));
        graph_.mutableStats()
            .tiers[static_cast<std::size_t>(child_.tierIndex())]
            .replyP95 = static_cast<Time>(replyP95_.estimate());
    }

    const auto slot = static_cast<std::uint32_t>(reply.id);
    RpcContext *callp = lookup(slot, reply.parentId);
    if (callp == nullptr || laneOf(*callp, reply.shard).done) {
        // A duplicate: another replica already answered this lane (or
        // the whole call retired) — a hedged/tied loser or a
        // failover re-issue racing the original. Account the wasted
        // work.
        TPV_ASSERT(policy_ != HedgePolicy::None || reissues_ > 0,
                   "duplicate shard reply without hedging, tied "
                   "requests, or failover re-issues");
        ++graph_.mutableStats().duplicatesDiscarded;
        graph_.mutableStats().duplicateWorkDispatched +=
            reply.serviceWork;
        return;
    }
    RpcContext &call = *callp;
    Lane &lane = laneOf(call, reply.shard);
    lane.done = true;
    if (timedHedging() && graph_.sim().cancel(lane.hedge))
        ++graph_.mutableStats().hedgesCancelled;
    if (retryEnabled_)
        graph_.sim().cancel(lane.deadline);
    if (!breakers_.empty())
        breakers_[reply.replica].onSuccess();

    // Flight recorder: the winning reply closes the lane's
    // sub-request span (opened at scatter). The span records which
    // replica actually won — hedges and retries may have moved the
    // lane — and the reply's size.
    if (obs::TraceRecorder *tr = traceSubs_ ? graph_.trace() : nullptr) {
        tr->close({slot, reply.parentId, obs::SpanKind::SubRequest,
                   {child_.tierIndex(), reply.shard}},
                  graph_.sim().now(), reply.replica, reply.bytes);
    }

    // The parent message handed to the completion carries the last
    // accepted reply's wire size, so single-lane (route-one)
    // completions can echo the shard reply's size to the client
    // without re-deriving it (see MemcachedCluster).
    call.request.bytes = reply.bytes;

    // Merge on the parent pool, keyed by the parent's connection.
    const net::Message req = call.request;
    parent_.machine().deliverIrq(
        parent_.pool().irqThreadIndex(req.conn),
        parent_.machine().config().irqWork, [this, slot, req] {
            graph_.mutableStats().serviceWorkDispatched +=
                params_.mergeWork;
            parent_.pool().serviceThread(req.conn).submit(
                params_.mergeWork, [this, slot, req] {
                    RpcContext *pc = lookup(slot, req.id);
                    TPV_ASSERT(pc != nullptr, "merge for retired call");
                    if (--pc->remaining > 0)
                        return;
#ifndef NDEBUG
                    // Retirement: every lane answered, and no hedge
                    // or deadline timer outlives its call.
                    for (const Lane &l : pc->lanes) {
                        TPV_ASSERT(l.done &&
                                       !graph_.sim().pending(l.hedge) &&
                                       !graph_.sim().pending(l.deadline),
                                   "fan-out call retired with an open "
                                   "lane or an armed timer");
                    }
#endif
                    pc->active = false;
                    pool_.release(slot);
                    finish(req);
                });
        });
}

void
Fanout::finish(const net::Message &req)
{
    graph_.mutableStats().serviceWorkDispatched += params_.postWork;
    parent_.pool().serviceThread(req.conn).submit(
        params_.postWork, [this, req] { onComplete_(req); });
}

void
Fanout::installTrace(int parentDepth)
{
    const int childTier = child_.tierIndex();
    // Breaker transitions are run-level markers (rootId 0, always
    // exported) and need no root resolution: install at any depth.
    for (std::size_t i = 0; i < breakers_.size(); ++i) {
        breakers_[i].setObserver(
            [this, childTier, r = static_cast<int>(i)](
                CircuitBreaker::State st) {
                if (obs::TraceRecorder *tr = graph_.trace()) {
                    const Time now = graph_.sim().now();
                    tr->marker(obs::SpanKind::BreakerOpen, now, now,
                               {childTier, -1, r},
                               static_cast<std::uint32_t>(st));
                }
            });
    }
    // Sub-request/hedge/retry spans and wire spans need the root id.
    // Down-link sends resolve it through this fan-out's context pool,
    // so parent depth <= 1 (the parent's own messages carry the root)
    // is the gate.
    traceSubs_ = parentDepth <= 1;
    if (!traceSubs_)
        return;
    toChild_.setObserver([this, childTier](const net::Message &m,
                                           Time delay) {
        obs::TraceRecorder *tr = graph_.trace();
        if (tr == nullptr)
            return;
        const RpcContext *c =
            lookup(static_cast<std::uint32_t>(m.id), m.parentId);
        const Time now = graph_.sim().now();
        tr->span(obs::SpanKind::Wire, now, now + delay,
                 c != nullptr ? c->rootId : localRoot(m),
                 {childTier, m.shard, m.replica}, m.bytes);
    });
    // Up-link replies echo the sub-request (parentId = the parent's
    // request id), which is the root only when the parent is the
    // entry tier; up-link observers do not consult the context pool,
    // so depth 0 edges only.
    if (parentDepth == 0) {
        const int parentTier = parent_.tierIndex();
        for (net::Link *l : toParent_) {
            l->setObserver([this, parentTier](const net::Message &m,
                                              Time delay) {
                if (obs::TraceRecorder *tr = graph_.trace()) {
                    const Time now = graph_.sim().now();
                    tr->span(obs::SpanKind::Wire, now, now + delay,
                             localRoot(m), {parentTier, m.shard, m.replica},
                             m.bytes);
                }
            });
        }
    }
}

ServiceGraph::ServiceGraph(Simulator &sim, net::Link &replyLink,
                           net::Endpoint &client, Rng rng,
                           double runVariability)
    : sim_(sim), replyLink_(replyLink), client_(client), rng_(rng)
{
    // Right-skewed residual environment state: most runs are clean, a
    // few land on a slow environment. The skew is what makes the HP
    // client's per-run averages fail Shapiro-Wilk (Figure 8/9) once
    // queueing amplifies it.
    if (runVariability > 0)
        envFactor_ = 1.0 + rng_.exponential(runVariability);
}

hw::Machine &
ServiceGraph::addMachine(const hw::HwConfig &cfg, const std::string &name)
{
    machines_.push_back(
        std::make_unique<hw::Machine>(sim_, cfg, name, rng_.u64()));
    return *machines_.back();
}

Tier &
ServiceGraph::registerTier(std::unique_ptr<Tier> tier)
{
    tiers_.push_back(std::move(tier));
    Tier &t = *tiers_.back();
    t.tierIndex_ = static_cast<int>(stats_.tiers.size());
    TierBreakdown &tb = stats_.tiers.emplace_back();
    tb.name = t.params().name;
    if (t.params().trackShards > 0) {
        const auto n = static_cast<std::size_t>(t.params().trackShards);
        tb.shardRequests.assign(n, 0);
        tb.shardWork.assign(n, 0);
    }
    return t;
}

Tier &
ServiceGraph::addTier(hw::Machine &machine, TierParams params)
{
    return registerTier(
        std::make_unique<Tier>(*this, machine, std::move(params)));
}

Tier &
ServiceGraph::addReplicatedTier(const hw::HwConfig &cfg, int replicas,
                                TierParams params)
{
    TPV_ASSERT(replicas >= 1, "tier '", params.name,
               "' needs at least one replica");
    std::vector<hw::Machine *> hosts;
    for (int r = 0; r < replicas; ++r) {
        std::string name = params.name;
        if (r > 0) {
            name += "-r";
            name += std::to_string(r + 1);
        }
        hosts.push_back(&addMachine(cfg, name));
    }
    return registerTier(std::make_unique<Tier>(*this, std::move(hosts),
                                               std::move(params)));
}

Tier *
ServiceGraph::findTier(const std::string &name)
{
    for (auto &t : tiers_) {
        if (t->params().name == name)
            return t.get();
    }
    return nullptr;
}

void
ServiceGraph::countLost(int tierIndex)
{
    ServiceStats &stats = mutableStats();
    ++stats.requestsLost;
    ++stats.tiers.at(static_cast<std::size_t>(tierIndex)).requestsLost;
}

net::Link &
ServiceGraph::addLink(net::Link::Params params)
{
    links_.push_back(
        std::make_unique<net::Link>(sim_, rng_.fork(), params));
    return *links_.back();
}

Fanout &
ServiceGraph::addFanout(Tier &parent, Tier &child, FanoutParams params,
                        Fanout::Complete onComplete)
{
    fanouts_.push_back(std::make_unique<Fanout>(
        *this, parent, child, std::move(params), std::move(onComplete)));
    return *fanouts_.back();
}

void
ServiceGraph::onMessage(const net::Message &req)
{
    TPV_ASSERT(entry_ != nullptr, "service graph has no entry tier");
    ++mutableStats().requestsReceived;
    // Flight recorder: the root span opens at service arrival and
    // closes in respond().
    if (trace_ != nullptr)
        trace_->begin({req.id, 0, obs::SpanKind::Root}, sim_.now(), req.id);
    entry_->onMessage(req);
}

void
ServiceGraph::respond(const net::Message &resp)
{
    ++mutableStats().responsesSent;
    if (trace_ != nullptr) {
        trace_->close({resp.id, 0, obs::SpanKind::Root}, sim_.now(), -1,
                      resp.bytes);
    }
    replyLink_.send(resp, client_);
}

void
ServiceGraph::setTrace(obs::TraceRecorder *recorder)
{
    trace_ = recorder;
    if (recorder == nullptr)
        return;
    // Fan-out depth below the entry tier: 0 = entry, 1 = a direct
    // fan-out child. Messages on depth <= 1 tiers carry the root
    // request id in (parentId ? parentId : id); deeper tiers carry a
    // fan-out slot id there, and resolving it to the root would need a
    // lookup in the parent fan-out's context pool, which no hook does
    // yet — so their per-dispatch hooks stay off (depth-gated).
    // With one feeder per tier, a tier's depth is the length of its
    // feeding chain up to the entry tier (kUnknown when the chain
    // never reaches it).
    constexpr int kUnknown = 1 << 20;
    const auto depthOf = [this](const Tier &tier) {
        int d = 0;
        for (const Tier *t = &tier; t != entry_; t = &t->feeder_->parent()) {
            if (t->feeder_ == nullptr || ++d > static_cast<int>(tiers_.size()))
                return kUnknown;
        }
        return d;
    };
    for (auto &t : tiers_)
        t->traceLocal_ = depthOf(*t) <= 1;
    for (auto &f : fanouts_)
        f->installTrace(depthOf(f->parent()));
}

} // namespace svc
} // namespace tpv
