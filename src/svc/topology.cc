#include "svc/topology.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace tpv {
namespace svc {

namespace {

/**
 * Root request id a message carries on the entry tier and on direct
 * fan-out children (sub-requests stamp the parent's id into parentId,
 * which *is* the root one fan-out down). Deeper tiers see slot ids
 * here — their hooks are depth-gated off (see setTrace).
 */
std::uint64_t
localRoot(const net::Message &m)
{
    return m.parentId != 0 ? m.parentId : m.id;
}

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
    if (hedgeBudget > 0) {
        out += "+hb";
        out += std::to_string(static_cast<int>(hedgeBudget * 100));
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

TierWork
lognormalWork(Time mean, Time sd)
{
    return [mean, sd](const net::Message &, Rng &rng) {
        return static_cast<Time>(rng.lognormalMeanSd(
            static_cast<double>(mean), static_cast<double>(sd)));
    };
}

Tier::Tier(ServiceGraph &graph, std::vector<hw::Machine *> hosts,
           TierParams params)
    : graph_(graph), params_(std::move(params))
{
    TPV_ASSERT(!hosts.empty(), "tier '", params_.name, "' needs a host");
    TPV_ASSERT(static_cast<bool>(params_.work) ||
                   static_cast<bool>(params_.workMut),
               "tier '", params_.name, "' needs a work model");
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
    // Clamp so a fan-out with more replicas than instances still
    // routes (colocated replicas share the last instance's queues).
    const auto idx = std::min<std::size_t>(msg.replica,
                                           instances_.size() - 1);
    return *instances_[idx];
}

void
Tier::setReplicaUp(int replica, bool up)
{
    instances_.at(static_cast<std::size_t>(replica))->up = up;
}

bool
Tier::replicaUp(int replica) const
{
    const auto idx = std::min<std::size_t>(
        static_cast<std::size_t>(replica), instances_.size() - 1);
    return instances_[idx]->up;
}

void
Tier::setReplicaSuspected(int replica, bool suspect)
{
    instances_.at(static_cast<std::size_t>(replica))->suspected =
        suspect;
}

bool
Tier::replicaTrusted(int replica) const
{
    const auto idx = std::min<std::size_t>(
        static_cast<std::size_t>(replica), instances_.size() - 1);
    return !instances_[idx]->suspected;
}

void
Tier::setReplicaSlowdown(int replica, double factor)
{
    TPV_ASSERT(factor > 0, "slowdown factor must be positive");
    instances_.at(static_cast<std::size_t>(replica))->slowFactor = factor;
}

double
Tier::replicaSlowdown(int replica) const
{
    return instances_.at(static_cast<std::size_t>(replica))->slowFactor;
}

int
Tier::aliveReplica(int preferred) const
{
    const int n = static_cast<int>(instances_.size());
    for (int i = 0; i < n; ++i) {
        const int r = (preferred + i) % n;
        if (!instances_[static_cast<std::size_t>(r)]->suspected)
            return r;
    }
    return -1;
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
    if (graph_.absorbSubLoss(*this, msg))
        return;
    countLost();
}

void
Tier::traceShed(const net::Message &msg, std::uint32_t reason)
{
    obs::TraceRecorder *tr = graph_.trace();
    if (tr == nullptr || !traceLocal_)
        return;
    const std::uint64_t root = localRoot(msg);
    if (!tr->wants(root))
        return;
    obs::SpanRecord s;
    s.start = s.end = graph_.sim().now();
    s.rootId = root;
    s.arg = reason;
    s.kind = obs::SpanKind::Shed;
    s.tier = static_cast<std::uint8_t>(tierIndex_);
    s.shard = static_cast<std::int16_t>(msg.shard);
    s.replica = static_cast<std::int16_t>(msg.replica);
    tr->record(s);
}

bool
Tier::shouldShed(Instance &inst, const net::Message &msg)
{
    const AdmissionPolicy &adm = params_.admission;
    ServiceStats &stats = graph_.mutableStats();
    TierBreakdown &tb =
        stats.tiers[static_cast<std::size_t>(tierIndex_)];
    const Time now = graph_.sim().now();
    // A request whose deadline already passed can only produce a
    // reply the sender will discard: serving it is pure waste.
    if (adm.dropExpired && msg.deadlineNs > 0 &&
        now > msg.appSendTime + static_cast<Time>(msg.deadlineNs)) {
        ++stats.requestsShedDelay;
        ++tb.requestsShed;
        traceShed(msg, 0);
        return true;
    }
    if (adm.maxQueueDepth > 0 &&
        inst.pool.serviceThread(msg.conn).queued() >=
            static_cast<std::size_t>(adm.maxQueueDepth)) {
        ++stats.requestsShedDepth;
        ++tb.requestsShed;
        traceShed(msg, 1);
        return true;
    }
    if (adm.codelTarget > 0) {
        // CoDel's standing-queue rule, observed where the queue is
        // visible: completions (completeService) track whether served
        // requests have been above the sojourn target, and once they
        // have been *persistently* above for a whole interval, the
        // instance enters the dropping state. While dropping, one
        // arrival is shed each time the sqrt control law says so —
        // the k-th drop comes interval/sqrt(k) after the previous
        // one — instead of shedding *every* arrival: all-or-nothing
        // shedding collapses the queue, overshoots, and saws goodput
        // between full admit and full drop under sustained overload.
        // An empty instance (no queued work on any thread) ends the
        // episode directly: the backlog is gone, and with nothing
        // left to complete no completion could ever reset the
        // marker. This must be instance-wide — one momentarily idle
        // thread of a drowning pool is not a drained backlog, and
        // closing on it resets the drop ramp to nothing.
        if (inst.pool.queuedTotal() == 0) {
            if (inst.codelDropping) {
                inst.codelLastCount = inst.codelDropCount;
                inst.codelExitAt = now;
                inst.codelDropping = false;
                inst.codelDropDebt = 0;
            }
            inst.aboveTargetSince = kTimeNever;
            return false;
        }
        const auto lawStep = [&adm](std::uint32_t k) {
            return std::max<Time>(
                1, static_cast<Time>(
                       static_cast<double>(adm.codelInterval) /
                       std::sqrt(static_cast<double>(k))));
        };
        if (!inst.codelDropping) {
            if (inst.aboveTargetSince == kTimeNever ||
                now - inst.aboveTargetSince < adm.codelInterval)
                return false;
            inst.codelDropping = true;
            // Re-entering soon after the last episode resumes near
            // the old drop rate instead of relearning it from 1
            // (the RFC 8289 hysteresis).
            if (inst.codelExitAt != kTimeNever &&
                now - inst.codelExitAt <
                    16 * adm.codelInterval &&
                inst.codelLastCount > 2)
                inst.codelDropCount = inst.codelLastCount - 2;
            else
                inst.codelDropCount = 1;
            inst.codelDropDebt = 0;
            inst.codelNextDrop = now + lawStep(inst.codelDropCount);
        } else {
            // Sibling sub-requests of queries the law already shed
            // are pure waste if admitted — their scatter can never
            // complete — so they ride the same drop without advancing
            // the law.
            bool sibling = false;
            if (msg.parentId != 0) {
                for (std::uint64_t p : inst.codelDropRing)
                    sibling = sibling || p == msg.parentId;
            }
            if (sibling) {
                ++stats.requestsShedDelay;
                ++tb.requestsShed;
                traceShed(msg, 2);
                return true;
            }
            if (now < inst.codelNextDrop) {
                // Between control instants everything else is
                // admitted — shedding every arrival here is the
                // on/off failure mode (queue collapse, overshoot,
                // goodput saw) — unless the schedule is in arrears:
                // a debt instant is repaid by shedding this arrival.
                if (inst.codelDropDebt == 0)
                    return false;
                --inst.codelDropDebt;
            } else {
                // Control instant reached. The receive path hands
                // arrivals to dispatch in bursts (IRQ work rides the
                // same cores as service work), so whole law instants
                // can pass with nothing present to shed. Missed
                // instants are not forgotten: the schedule advances
                // to now and each skipped instant becomes debt,
                // repaid on the arrivals of the next burst — without
                // this the ramp stalls at one drop per burst gap and
                // the law never catches the overload.
                ++inst.codelDropCount;
                Time next =
                    inst.codelNextDrop + lawStep(inst.codelDropCount);
                while (next <= now) {
                    ++inst.codelDropCount;
                    ++inst.codelDropDebt;
                    next += lawStep(inst.codelDropCount);
                }
                inst.codelNextDrop = next;
            }
        }
        inst.codelDropRing[inst.codelDropRingAt] = msg.parentId;
        inst.codelDropRingAt = (inst.codelDropRingAt + 1) %
                               inst.codelDropRing.size();
        ++stats.requestsShedDelay;
        ++tb.requestsShed;
        traceShed(msg, 2);
        return true;
    }
    return false;
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
    // A mutating work model (cache tier) transforms the request the
    // handler and reply will see; msg is the post-transform message
    // from here on. The copy is what every capture below took anyway.
    // Work draws come from the serving instance's own stream (forked
    // at construction), so replicas never reorder one generator.
    net::Message msg = msgIn;
    Time work = params_.workMut ? params_.workMut(msg, inst.rng)
                                : params_.work(msg, inst.rng);
    if (params_.envSensitive) {
        work = static_cast<Time>(graph_.envFactor() *
                                 static_cast<double>(work));
    }
    if (inst.slowFactor != 1.0) {
        work = static_cast<Time>(inst.slowFactor *
                                 static_cast<double>(work));
    }
    // Flight recorder: open the dispatch->completion span (split into
    // queue-wait + service at close). Keyed on the post-workMut
    // message so completeService — which sees the same transformed
    // message — closes the exact begin. Tied twins differ in replica,
    // so their keys never collide; a twin cancelled before running
    // leaves a dangling open that export simply drops.
    if (obs::TraceRecorder *tr = graph_.trace();
        tr != nullptr && traceLocal_) {
        const std::uint64_t root = localRoot(msg);
        if (tr->wants(root)) {
            tr->begin(obs::TraceRecorder::OpenKey{
                          msg.id, msg.parentId, obs::SpanKind::Service,
                          static_cast<std::uint8_t>(tierIndex_),
                          static_cast<std::int16_t>(msg.shard),
                          static_cast<std::int16_t>(msg.replica)},
                      graph_.sim().now(), root, 0);
        }
    }
    ServiceStats &stats = graph_.mutableStats();
    if (msg.tied && tieArbiter_) {
        // Tied copy: admission is decided at execution start, so the
        // work accounting moves into the completion (it only runs if
        // this copy won the claim race). The guard re-checks replica
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
                return tieArbiter_(token, parent, shard, replica);
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
    Instance &inst = instanceFor(msg);
    if (!inst.up) {
        // The replica died while the work was queued or running: the
        // reply dies with it (in-flight requests error-complete).
        noteLost(msg);
        return;
    }
    if (params_.admission.codelTarget > 0) {
        // Feed the CoDel state with the served request's sojourn
        // (send to completion): this is where worker-queue standing
        // delay actually shows, unlike the pre-queue dispatch point
        // where admission acts.
        const Time sojourn = graph_.sim().now() - msg.appSendTime;
        if (sojourn < params_.admission.codelTarget) {
            // Sojourn back under target: the standing queue is
            // resolved, close the dropping episode (remembering its
            // drop count for a quick re-entry).
            if (inst.codelDropping) {
                inst.codelLastCount = inst.codelDropCount;
                inst.codelExitAt = graph_.sim().now();
                inst.codelDropping = false;
                inst.codelDropDebt = 0;
            }
            inst.aboveTargetSince = kTimeNever;
        } else if (inst.aboveTargetSince == kTimeNever) {
            inst.aboveTargetSince = graph_.sim().now();
        }
    }
    // Flight recorder: close the dispatch->completion span into a
    // queue-wait span and a service span. The service start is
    // derived as completion minus the nominal work (txWork and any
    // worker preemption land in the queue-wait part — documented
    // approximation), clamped so a zero-queue dispatch never yields
    // a negative wait.
    if (obs::TraceRecorder *tr = graph_.trace();
        tr != nullptr && traceLocal_) {
        Time start = 0;
        std::uint64_t root = 0;
        std::uint32_t arg = 0;
        const obs::TraceRecorder::OpenKey key{
            msg.id, msg.parentId, obs::SpanKind::Service,
            static_cast<std::uint8_t>(tierIndex_),
            static_cast<std::int16_t>(msg.shard),
            static_cast<std::int16_t>(msg.replica)};
        if (tr->end(key, &start, &root, &arg)) {
            const Time now = graph_.sim().now();
            const Time svcStart = std::max(start, now - work);
            obs::SpanRecord s;
            s.rootId = root;
            s.tier = static_cast<std::uint8_t>(tierIndex_);
            s.shard = static_cast<std::int16_t>(msg.shard);
            s.replica = static_cast<std::int16_t>(msg.replica);
            s.start = start;
            s.end = svcStart;
            s.kind = obs::SpanKind::QueueWait;
            s.arg = 0;
            tr->record(s);
            s.start = svcStart;
            s.end = now;
            s.kind = obs::SpanKind::Service;
            s.arg = static_cast<std::uint32_t>(
                std::min<Time>(work, UINT32_MAX));
            tr->record(s);
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
    TPV_ASSERT(params_.shards >= 1, "fanout needs at least one shard");
    TPV_ASSERT(params_.replicas >= 1, "fanout needs at least one replica");
    // A duplicate to the only replica would share the primary's
    // worker queue and could never win — reject the degenerate shape
    // instead of reporting meaningless hedge/tie counters.
    TPV_ASSERT(policy_ == HedgePolicy::None || params_.replicas >= 2,
               "hedged and tied requests need a backup replica "
               "(replicas >= 2)");
    TPV_ASSERT(!timedHedging() || params_.hedgeDelay > 0,
               "fixed/adaptive hedging needs a positive hedgeDelay "
               "(adaptive uses it until the estimator warms up)");
    TPV_ASSERT(static_cast<bool>(onComplete_),
               "fanout needs a completion callback");
    traffic_ = params_.traffic;
    retryEnabled_ = traffic_.retry.enabled();
    if (retryEnabled_) {
        TPV_ASSERT(traffic_.retry.maxAttempts >= 1,
                   "retry policy needs at least one attempt");
        subDeadlineNs_ = static_cast<std::uint32_t>(
            std::min<Time>(traffic_.retry.deadline, UINT32_MAX));
        budget_ = RetryBudget(traffic_.retry);
    }
    if (traffic_.breaker.enabled()) {
        breakers_.assign(static_cast<std::size_t>(params_.replicas),
                         CircuitBreaker(traffic_.breaker));
        breakerLatency_ = traffic_.breaker.latencyFactor > 0;
    }
    // One child->parent link per child replica instance, so replicas
    // never interleave one link's jitter stream. Sub-request replicas
    // beyond the instance count clamp to the last link, mirroring
    // Tier::instanceFor.
    const int upLinks = std::max(child_.replicaCount(), 1);
    toParent_.reserve(static_cast<std::size_t>(upLinks));
    for (int r = 0; r < upLinks; ++r)
        toParent_.push_back(&graph.addLink(params_.link));
    // Hedge-rate budget: a token bucket (same machinery as the retry
    // budget) earning params_.hedgeBudget tokens per primary dispatch;
    // a hedge that finds the bucket empty is suppressed and counted.
    hedgeBudgetEnabled_ = params_.hedgeBudget > 0 && timedHedging();
    if (hedgeBudgetEnabled_) {
        RetryPolicy hb;
        hb.budgetRatio = params_.hedgeBudget;
        hb.budgetBurst = 16.0;
        hedgeBudget_ = RetryBudget(hb);
    }
    // Pre-size the context pool and warm each context's per-lane
    // vectors, so scatter's assign() calls recycle capacity from the
    // first query on instead of growing fresh slots as the in-flight
    // high-water mark creeps up (bench/hotpath gates on zero
    // steady-state allocations). The reservation leaves the slot
    // acquisition sequence — and with it the sub-request ids riding
    // slot indices — bit-identical to an unreserved pool's. Loads
    // past ~256 in-flight calls (sustained overload) still grow.
    constexpr std::size_t kReservedContexts = 256;
    pool_.reserve(kReservedContexts);
    const auto lanes = static_cast<std::size_t>(laneCount());
    for (std::size_t i = 0; i < kReservedContexts; ++i) {
        RpcContext &c = pool_.at(static_cast<std::uint32_t>(i));
        c.done.assign(lanes, 0);
        c.replicaOf.assign(lanes, 0);
        c.claimed.assign(lanes, 0);
        c.hedges.assign(lanes, EventHandle{});
        c.deadlines.assign(lanes, EventHandle{});
        c.attempts.assign(lanes, 0);
        c.dropped.assign(lanes, 0);
    }
    // Child replies route through this fan-out's merge port.
    child_.setHandler([this](const net::Message &msg, Time work) {
        replyFromChild(msg, work);
    });
    if (policy_ == HedgePolicy::Tied) {
        child_.setTieArbiter(
            [this](std::uint32_t token, std::uint64_t parentId,
                   std::uint16_t shard, std::uint16_t replica) {
                return admitTied(token, parentId, shard, replica);
            });
    }
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
    if (params_.pinShardToReplica)
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
    const auto idx =
        std::min<std::size_t>(msg.replica, toParent_.size() - 1);
    toParent_[idx]->send(child_.makeReply(msg, work), *mergePort_);
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
    if (params_.propagateKey) {
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
    sub.deadlineNs = subDeadlineNs_;
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
Fanout::routeLive(std::uint64_t id, int shard, std::uint64_t traceRoot)
{
    const int primary = primaryFor(id, shard);
    if (child_.replicaTrusted(primary)) {
        if (breakers_.empty() || breakerAllows(primary))
            return primary;
        // Open breaker on a trusted primary: prefer another trusted
        // replica whose breaker admits traffic. When every candidate
        // is blocked, send to the primary anyway — a breaker shifts
        // load, it must never self-inflict a total outage.
        for (int i = 1; i < params_.replicas; ++i) {
            const int r = (primary + i) % params_.replicas;
            if (child_.replicaTrusted(r) && breakerAllows(r)) {
                ++graph_.mutableStats().breakerSkips;
                if (traceRoot != 0) {
                    obs::SpanRecord s;
                    s.start = s.end = graph_.sim().now();
                    s.rootId = traceRoot;
                    s.arg = static_cast<std::uint32_t>(r);
                    s.kind = obs::SpanKind::BreakerSkip;
                    s.tier = static_cast<std::uint8_t>(
                        child_.tierIndex());
                    s.shard = static_cast<std::int16_t>(shard);
                    s.replica = static_cast<std::int16_t>(primary);
                    graph_.trace()->record(s);
                }
                return r;
            }
        }
        return primary;
    }
    const int alive = child_.aliveReplica(primary + 1);
    if (alive >= 0) {
        // Detected-dead primary: route around it, as a client whose
        // failure detector has flagged the box would.
        ++graph_.mutableStats().requestsFailedOver;
        ++reissues_;
    }
    return alive;
}

int
Fanout::liveBackup(std::uint64_t id, int shard, int primary) const
{
    int r = backupFor(id, shard);
    if (!child_.replicaTrusted(r))
        r = child_.aliveReplica(r + 1);
    return (r < 0 || r == primary) ? -1 : r;
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
    call.done.assign(lanes, 0);
    call.replicaOf.assign(lanes, 0);
    if (policy_ == HedgePolicy::Tied)
        call.claimed.assign(lanes, 0);
    // Timer slots only exist when hedging can arm them, keeping the
    // unhedged hot path free of the extra per-query bookkeeping.
    if (timedHedging())
        call.hedges.assign(lanes, EventHandle{});
    // Same rule for the retry bookkeeping: the no-deadline hot path
    // touches none of it.
    if (retryEnabled_) {
        call.deadlines.assign(lanes, EventHandle{});
        call.attempts.assign(lanes, 1);
        call.dropped.assign(lanes, 0);
    }
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
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        const int shard = laneToShard(call, static_cast<int>(lane));
        const int replica = routeLive(req.id, shard, traceRoot);
        if (replica < 0) {
            // Every replica is down: nothing was sent, the request
            // is lost. Close the lane so a later crash notification
            // cannot mistake it for an outstanding sub-request and
            // resurrect an already-lost lane.
            graph_.countLost(child_.tierIndex());
            call.done[lane] = 1;
            continue;
        }
        call.replicaOf[lane] = static_cast<std::uint8_t>(replica);
        if (traceRoot != 0) {
            tr->begin(obs::TraceRecorder::OpenKey{
                          slot, req.id, obs::SpanKind::SubRequest,
                          static_cast<std::uint8_t>(child_.tierIndex()),
                          static_cast<std::int16_t>(shard), -1},
                      graph_.sim().now(), traceRoot, 0);
        }
        ++graph_.mutableStats().subRequestsSent;
        const bool tiedCopies = policy_ == HedgePolicy::Tied;
        toChild_.send(makeSub(req, slot, shard, replica, tiedCopies),
                      child_);
        if (retryEnabled_) {
            budget_.earn();
            armDeadline(call, lane, slot, req.id, shard);
        }
        if (hedgeBudgetEnabled_)
            hedgeBudget_.earn();
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
            call.hedges[lane] = graph_.sim().schedule(
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
    if (call == nullptr ||
        call->done[static_cast<std::size_t>(shardToLane(shard))])
        return; // the shard answered between arming and firing
    const auto lane = static_cast<std::size_t>(shardToLane(shard));
    const int replica =
        liveBackup(parentId, shard, call->replicaOf[lane]);
    if (replica < 0)
        return; // no live backup distinct from the primary: useless
    if (hedgeBudgetEnabled_ && !hedgeBudget_.tryAcquire()) {
        // Budget empty: the duplicate is withheld, the primary stands.
        ++graph_.mutableStats().hedgesSuppressed;
        return;
    }
    ++graph_.mutableStats().hedgesSent;
    if (obs::TraceRecorder *tr = traceSubs_ ? graph_.trace() : nullptr;
        tr != nullptr && tr->wants(call->rootId)) {
        obs::SpanRecord s;
        s.start = s.end = graph_.sim().now();
        s.rootId = call->rootId;
        s.kind = obs::SpanKind::Hedge;
        s.tier = static_cast<std::uint8_t>(child_.tierIndex());
        s.shard = static_cast<std::int16_t>(shard);
        s.replica = static_cast<std::int16_t>(replica);
        tr->record(s);
    }
    toChild_.send(makeSub(call->request, slot, shard, replica, false),
                  child_);
}

void
Fanout::armDeadline(RpcContext &call, std::size_t lane,
                    std::uint32_t slot, std::uint64_t parentId,
                    int shard)
{
    call.deadlines[lane] = graph_.sim().schedule(
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
    const auto lane = static_cast<std::size_t>(shardToLane(shard));
    if (call->done[lane])
        return; // a reply beat the deadline after all
    // The attempt timed out: that is failure evidence against the
    // replica it was assigned to, whether the copy died in a crash,
    // was shed, or is merely stuck in queue.
    noteBreakerFailure(call->replicaOf[lane]);
    ServiceStats &stats = graph_.mutableStats();
    if (call->attempts[lane] >= traffic_.retry.maxAttempts ||
        !budget_.tryAcquire()) {
        ++stats.retriesSuppressed;
        if (call->dropped[lane]) {
            // The in-flight copy is known fault-dropped and no retry
            // will replace it: the loss is now terminal.
            call->dropped[lane] = 0;
            graph_.countLost(child_.tierIndex());
        }
        return;
    }
    // Retry target: the next trusted replica (breaker permitting)
    // after the one that timed out, the same replica when it is the
    // only candidate left (it may have restarted by now).
    const int current = call->replicaOf[lane];
    int target = current;
    for (int i = 1; i <= params_.replicas; ++i) {
        const int r = (current + i) % params_.replicas;
        if (!child_.replicaTrusted(r))
            continue;
        if (!breakers_.empty() && !breakerAllows(r))
            continue;
        target = r;
        break;
    }
    ++call->attempts[lane];
    call->dropped[lane] = 0;
    call->replicaOf[lane] = static_cast<std::uint8_t>(target);
    ++stats.requestsRetried;
    if (obs::TraceRecorder *tr = traceSubs_ ? graph_.trace() : nullptr;
        tr != nullptr && tr->wants(call->rootId)) {
        obs::SpanRecord s;
        s.start = s.end = graph_.sim().now();
        s.rootId = call->rootId;
        s.arg = call->attempts[lane];
        s.kind = obs::SpanKind::Retry;
        s.tier = static_cast<std::uint8_t>(child_.tierIndex());
        s.shard = static_cast<std::int16_t>(shard);
        s.replica = static_cast<std::int16_t>(target);
        tr->record(s);
    }
    // A retry racing its own original can produce a duplicate reply:
    // reissues_ legalises it for the duplicate-discard assertion.
    ++reissues_;
    toChild_.send(makeSub(call->request, slot, shard, target, false),
                  child_);
    armDeadline(*call, lane, slot, parentId, shard);
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
    const auto lane = static_cast<std::size_t>(shardToLane(msg.shard));
    if (call->done[lane]) {
        // A loser copy (hedge, tied twin, stale retry) died with the
        // fault after the lane was already served: nothing the client
        // cares about was lost.
        ++graph_.mutableStats().subRequestsDropped;
        return true;
    }
    if (!graph_.sim().pending(call->deadlines[lane]))
        return false;
    // A deadline timer covers this lane: the coming fireRetry() (or
    // its suppression) decides whether the loss becomes terminal.
    call->dropped[lane] = 1;
    ++graph_.mutableStats().subRequestsDropped;
    return true;
}

bool
Fanout::breakerAllows(int replica)
{
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

void
Fanout::noteBreakerSuccess(int replica, Time rtt)
{
    if (breakerLatency_ && replyP95_.isWarm() &&
        static_cast<double>(rtt) >
            traffic_.breaker.latencyFactor * replyP95_.estimate()) {
        // Accepted but pathologically slow: latency-trip evidence.
        noteBreakerFailure(replica);
        return;
    }
    breakers_[static_cast<std::size_t>(replica)].onSuccess();
}

bool
Fanout::admitTied(std::uint32_t token, std::uint64_t parentId,
                  std::uint16_t shard, std::uint16_t replica)
{
    RpcContext *call = lookup(token, parentId);
    const auto lane = static_cast<std::size_t>(shardToLane(shard));
    if (call == nullptr || call->done[lane] ||
        call->claimed[lane] != 0) {
        // The twin already claimed (or the call retired): this copy
        // is cancelled before any service work ran.
        ++graph_.mutableStats().tiedCancelledBeforeRun;
        return false;
    }
    call->claimed[lane] = static_cast<std::uint8_t>(replica + 1);
    return true;
}

void
Fanout::onReplicaDown(int replica)
{
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(pool_.capacity()); ++slot) {
        RpcContext &call = pool_.at(slot);
        if (!call.active)
            continue;
        const auto lanes = static_cast<std::size_t>(laneCount());
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            if (call.done[lane])
                continue;
            bool affected;
            if (policy_ == HedgePolicy::Tied) {
                // A lane whose *claimer* died needs help (reopen the
                // claim so a still-queued twin may run); a lane
                // claimed by a live replica is already running. An
                // unclaimed lane usually has a live twin queued — a
                // dead replica's copy can never claim — but re-issue
                // its primary anyway: if the twin was never sent
                // (every backup suspected), the re-issue is the only
                // copy left, and otherwise the duplicate is
                // discarded by first-reply-wins.
                const auto claimer = call.claimed[lane];
                affected =
                    claimer == static_cast<std::uint8_t>(replica + 1) ||
                    (claimer == 0 &&
                     call.replicaOf[lane] ==
                         static_cast<std::uint8_t>(replica));
                if (claimer == static_cast<std::uint8_t>(replica + 1))
                    call.claimed[lane] = 0; // reopen the claim
            } else {
                affected = call.replicaOf[lane] ==
                           static_cast<std::uint8_t>(replica);
            }
            if (!affected)
                continue;
            const int shard = laneToShard(call, static_cast<int>(lane));
            const int target = child_.aliveReplica(replica + 1);
            if (target < 0) {
                // No trusted replica to re-issue to. A pending
                // deadline timer still covers the lane — its retry
                // (to a possibly-restarted replica) or suppression
                // decides the loss; otherwise it is terminal now.
                if (retryEnabled_ &&
                    graph_.sim().pending(call.deadlines[lane])) {
                    call.dropped[lane] = 1;
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
            call.replicaOf[lane] = static_cast<std::uint8_t>(target);
            if (retryEnabled_)
                call.dropped[lane] = 0;
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
    // Only consumers of the estimate (Adaptive hedging, the breaker
    // latency trip) pay for the update: this is a per-reply hot path.
    if (policy_ == HedgePolicy::Adaptive || breakerLatency_) {
        replyP95_.observe(static_cast<double>(graph_.sim().now() -
                                              reply.appSendTime));
        graph_.mutableStats()
            .tiers[static_cast<std::size_t>(child_.tierIndex())]
            .replyP95 = static_cast<Time>(replyP95_.estimate());
    }

    const auto slot = static_cast<std::uint32_t>(reply.id);
    RpcContext *callp = lookup(slot, reply.parentId);
    const auto lane = static_cast<std::size_t>(shardToLane(reply.shard));
    if (callp == nullptr || callp->done[lane]) {
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
    call.done[lane] = 1;
    if (timedHedging() && graph_.sim().cancel(call.hedges[lane]))
        ++graph_.mutableStats().hedgesCancelled;
    if (retryEnabled_)
        graph_.sim().cancel(call.deadlines[lane]);
    if (!breakers_.empty()) {
        noteBreakerSuccess(reply.replica,
                           graph_.sim().now() - reply.appSendTime);
    }

    // Flight recorder: the winning reply closes the lane's
    // sub-request span (opened at scatter). The span records which
    // replica actually won — hedges
    // and retries may have moved the lane — and the reply's size.
    if (obs::TraceRecorder *tr = traceSubs_ ? graph_.trace() : nullptr;
        tr != nullptr) {
        Time start = 0;
        std::uint64_t root = 0;
        std::uint32_t arg = 0;
        const obs::TraceRecorder::OpenKey key{
            slot, reply.parentId, obs::SpanKind::SubRequest,
            static_cast<std::uint8_t>(child_.tierIndex()),
            static_cast<std::int16_t>(reply.shard), -1};
        if (tr->end(key, &start, &root, &arg)) {
            obs::SpanRecord s;
            s.start = start;
            s.end = graph_.sim().now();
            s.rootId = root;
            s.arg = reply.bytes;
            s.kind = obs::SpanKind::SubRequest;
            s.tier = static_cast<std::uint8_t>(child_.tierIndex());
            s.shard = static_cast<std::int16_t>(reply.shard);
            s.replica = static_cast<std::int16_t>(reply.replica);
            tr->record(s);
        }
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
    const auto childTier = static_cast<std::uint8_t>(child_.tierIndex());
    // Breaker transitions are run-level markers (rootId 0, always
    // exported) and need no root resolution: install at any depth.
    for (std::size_t r = 0; r < breakers_.size(); ++r) {
        breakers_[r].setObserver(
            [this, childTier, r](CircuitBreaker::State st) {
                obs::TraceRecorder *tr = graph_.trace();
                if (tr == nullptr)
                    return;
                obs::SpanRecord s;
                s.start = s.end = graph_.sim().now();
                s.arg = static_cast<std::uint32_t>(st);
                s.kind = obs::SpanKind::BreakerOpen;
                s.tier = childTier;
                s.replica = static_cast<std::int16_t>(r);
                tr->record(s);
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
                                           Time delay, bool) {
        obs::TraceRecorder *tr = graph_.trace();
        if (tr == nullptr)
            return;
        const RpcContext *c =
            lookup(static_cast<std::uint32_t>(m.id), m.parentId);
        const std::uint64_t root =
            c != nullptr ? c->rootId : localRoot(m);
        if (!tr->wants(root))
            return;
        obs::SpanRecord s;
        s.start = graph_.sim().now();
        s.end = s.start + delay;
        s.rootId = root;
        s.arg = m.bytes;
        s.kind = obs::SpanKind::Wire;
        s.tier = childTier;
        s.shard = static_cast<std::int16_t>(m.shard);
        s.replica = static_cast<std::int16_t>(m.replica);
        tr->record(s);
    });
    // Up-link replies echo the sub-request (parentId = the parent's
    // request id), which is the root only when the parent is the
    // entry tier; up-link observers do not consult the context pool,
    // so depth 0 edges only.
    if (parentDepth == 0) {
        const auto parentTier =
            static_cast<std::uint8_t>(parent_.tierIndex());
        for (net::Link *l : toParent_) {
            l->setObserver([this, parentTier](const net::Message &m,
                                              Time delay, bool) {
                obs::TraceRecorder *tr = graph_.trace();
                if (tr == nullptr)
                    return;
                const std::uint64_t root = localRoot(m);
                if (!tr->wants(root))
                    return;
                obs::SpanRecord s;
                s.start = graph_.sim().now();
                s.end = s.start + delay;
                s.rootId = root;
                s.arg = m.bytes;
                s.kind = obs::SpanKind::Wire;
                s.tier = parentTier;
                s.shard = static_cast<std::int16_t>(m.shard);
                s.replica = static_cast<std::int16_t>(m.replica);
                tr->record(s);
            });
        }
    }
}

void
Fanout::registerMetrics(obs::MetricsRegistry &m)
{
    const Fanout *self = this;
    m.add("inflight." + child_.params().name,
          [self] { return static_cast<double>(self->inFlight()); });
    for (std::size_t r = 0; r < breakers_.size(); ++r) {
        const CircuitBreaker *br = &breakers_[r];
        m.add("breaker." + child_.params().name + ".r" +
                  std::to_string(r + 1),
              [br] {
                  return static_cast<double>(
                      static_cast<int>(br->state()));
              });
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
ServiceGraph::addTier(hw::Machine &machine, TierParams params)
{
    tiers_.push_back(
        std::make_unique<Tier>(*this, machine, std::move(params)));
    Tier &t = *tiers_.back();
    t.tierIndex_ = static_cast<int>(stats_.tiers.size());
    TierBreakdown tb;
    tb.name = t.params().name;
    stats_.tiers.push_back(std::move(tb));
    if (t.params().trackShards > 0) {
        const auto n =
            static_cast<std::size_t>(t.params().trackShards);
        stats_.tiers.back().shardRequests.assign(n, 0);
        stats_.tiers.back().shardWork.assign(n, 0);
    }
    return t;
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
    tiers_.push_back(
        std::make_unique<Tier>(*this, std::move(hosts),
                               std::move(params)));
    Tier &t = *tiers_.back();
    t.tierIndex_ = static_cast<int>(stats_.tiers.size());
    TierBreakdown tb;
    tb.name = t.params().name;
    stats_.tiers.push_back(std::move(tb));
    if (t.params().trackShards > 0) {
        const auto n =
            static_cast<std::size_t>(t.params().trackShards);
        stats_.tiers.back().shardRequests.assign(n, 0);
        stats_.tiers.back().shardWork.assign(n, 0);
    }
    return t;
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
ServiceGraph::notifyReplicaDown(Tier &tier, int replica)
{
    for (auto &f : fanouts_) {
        if (&f->child() == &tier)
            f->onReplicaDown(replica);
    }
}

void
ServiceGraph::countLost(int tierIndex)
{
    ServiceStats &stats = mutableStats();
    ++stats.requestsLost;
    ++stats.tiers.at(static_cast<std::size_t>(tierIndex)).requestsLost;
}

bool
ServiceGraph::absorbSubLoss(Tier &tier, const net::Message &msg)
{
    // Only a fan-out whose child is the dropping tier can own the
    // message: its sub-request ids are that fan-out's context slots.
    for (auto &f : fanouts_) {
        if (&f->child() == &tier && f->absorbLoss(msg))
            return true;
    }
    return false;
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
    if (trace_ != nullptr && trace_->wants(req.id)) {
        trace_->begin(obs::TraceRecorder::OpenKey{
                          req.id, 0, obs::SpanKind::Root, 0xff, -1, -1},
                      sim_.now(), req.id, req.bytes);
    }
    entry_->onMessage(req);
}

void
ServiceGraph::respond(net::Message resp)
{
    resp.serverDoneTime = sim_.now();
    ++mutableStats().responsesSent;
    if (trace_ != nullptr) {
        Time start = 0;
        std::uint64_t root = 0;
        std::uint32_t arg = 0;
        const obs::TraceRecorder::OpenKey key{
            resp.id, 0, obs::SpanKind::Root, 0xff, -1, -1};
        if (trace_->end(key, &start, &root, &arg)) {
            obs::SpanRecord s;
            s.start = start;
            s.end = sim_.now();
            s.rootId = root;
            s.arg = resp.bytes;
            s.kind = obs::SpanKind::Root;
            trace_->record(s);
        }
    }
    replyLink_.send(resp, client_);
}

void
ServiceGraph::setCacheFlushHook(CacheFlushHook hook)
{
    cacheFlushHook_ = std::move(hook);
}

void
ServiceGraph::flushCaches(Tier &tier, int replica)
{
    ++mutableStats().cacheFlushes;
    if (cacheFlushHook_)
        cacheFlushHook_(tier, replica);
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
    constexpr int kUnknown = 1 << 20;
    std::vector<int> depth(tiers_.size(), kUnknown);
    if (entry_ != nullptr)
        depth[static_cast<std::size_t>(entry_->tierIndex())] = 0;
    for (std::size_t pass = 0; pass <= fanouts_.size(); ++pass) {
        for (auto &f : fanouts_) {
            const int pd =
                depth[static_cast<std::size_t>(f->parent().tierIndex())];
            int &cd =
                depth[static_cast<std::size_t>(f->child().tierIndex())];
            if (pd != kUnknown)
                cd = std::min(cd, pd + 1);
        }
    }
    for (auto &t : tiers_)
        t->traceLocal_ =
            depth[static_cast<std::size_t>(t->tierIndex())] <= 1;
    for (auto &f : fanouts_)
        f->installTrace(
            depth[static_cast<std::size_t>(f->parent().tierIndex())]);
}

void
ServiceGraph::onRegisterMetrics(
    std::function<void(obs::MetricsRegistry &)> fn)
{
    metricRegistrars_.push_back(std::move(fn));
}

void
ServiceGraph::registerMetrics(obs::MetricsRegistry &m)
{
    // Per-replica worker-queue depth.
    for (auto &t : tiers_) {
        for (int r = 0; r < t->replicaCount(); ++r) {
            std::string name = "qdepth." + t->params().name;
            if (t->replicaCount() > 1)
                name += ".r" + std::to_string(r + 1);
            WorkerPool *pool = &t->pool(r);
            m.add(std::move(name), [pool] {
                return static_cast<double>(pool->queuedTotal());
            });
        }
    }
    // Per-edge in-flight calls and breaker states.
    for (auto &f : fanouts_)
        f->registerMetrics(m);
    // Cumulative dispatched service work — the utilisation numerator;
    // differentiate adjacent rows for a rate.
    const ServiceStats *st = &stats_;
    m.add("work_ns", [st] {
        return static_cast<double>(st->serviceWorkDispatched);
    });
    for (auto &fn : metricRegistrars_)
        fn(m);
}

} // namespace svc
} // namespace tpv
