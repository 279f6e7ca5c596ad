#include "svc/memcached.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace tpv {
namespace svc {

namespace {

/**
 * Message::kind high bit marking a GET that missed its cache while
 * the sub-request detours through the backing store. Never on the
 * wire to the client: the store completion clears it before the
 * reply re-enters the normal merge path.
 */
constexpr std::uint8_t kMissFlag = 0x80;

/**
 * The memcached work model shared by the single-tier server and the
 * sharded cluster's cache tier, so the two deployments stay provably
 * identical: lognormal base time plus a per-byte cost of the
 * ETC-sampled value (stored through @p valueBytes for the response
 * size), SETs paying the store/LRU extra.
 */
Time
etcServiceWork(const MemcachedParams &p, const net::Message &req,
               std::uint32_t *valueBytes, Rng &rng)
{
    const auto base = static_cast<double>(p.baseServiceTime);
    const auto sd = static_cast<double>(p.serviceTimeSd);
    Time work = static_cast<Time>(rng.lognormalMeanSd(base, sd));

    // The value is sampled at service time: GETs pay to read and copy
    // it into the response; SETs pay to store it plus bookkeeping.
    *valueBytes = p.etc.sampleValueBytes(rng);
    work += static_cast<Time>(p.nsPerValueByte *
                              static_cast<double>(*valueBytes));
    if (static_cast<MemcachedOp>(req.kind) == MemcachedOp::Set)
        work += p.setExtraTime;
    return work;
}

/** Response size matching etcServiceWork's sampled value. */
std::uint32_t
etcResponseBytes(const MemcachedParams &p, const net::Message &req,
                 std::uint32_t valueBytes)
{
    if (static_cast<MemcachedOp>(req.kind) == MemcachedOp::Get)
        return p.responseOverhead + valueBytes;
    return p.responseOverhead; // SET: status only
}

/**
 * Cache-event instant span (hit/miss/fill). The cache tier sits one
 * fan-out below the entry tier, so the sub-request's parentId IS the
 * root id.
 */
void
traceCacheEvent(ServiceGraph &g, int tier, const net::Message &msg,
                obs::SpanKind kind, std::uint32_t arg)
{
    obs::TraceRecorder *tr = g.trace();
    if (tr == nullptr)
        return;
    const std::uint64_t root = msg.parentId != 0 ? msg.parentId : msg.id;
    if (!tr->wants(root))
        return;
    obs::SpanRecord rec;
    rec.start = rec.end = g.sim().now();
    rec.rootId = root;
    rec.arg = arg;
    rec.kind = kind;
    rec.tier = static_cast<std::uint8_t>(tier);
    rec.shard = static_cast<std::int16_t>(msg.shard);
    rec.replica = static_cast<std::int16_t>(msg.replica);
    tr->record(rec);
}

} // namespace

MemcachedServer::MemcachedServer(Simulator &sim, hw::Machine &machine,
                                 net::Link &replyLink,
                                 net::Endpoint &client, Rng rng,
                                 MemcachedParams params)
    : SingleTierServer(sim, machine, replyLink, client, params.workers,
                       rng, params.runVariability),
      params_(params)
{
}

Time
MemcachedServer::serviceWork(const net::Message &req, Rng &rng)
{
    return etcServiceWork(params_, req, &lastValueBytes_, rng);
}

std::uint32_t
MemcachedServer::responseBytes(const net::Message &req, Rng &rng)
{
    (void)rng;
    return etcResponseBytes(params_, req, lastValueBytes_);
}

int
MemcachedCluster::shardOf(std::uint64_t id, int shards)
{
    // SplitMix64 finaliser: the id stands in for the key, so the
    // shard choice is uniform and deterministic per request.
    std::uint64_t h = id + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<int>(h % static_cast<std::uint64_t>(shards));
}

MemcachedCluster::MemcachedCluster(Simulator &sim,
                                   const hw::HwConfig &serverCfg,
                                   net::Link &replyLink,
                                   net::Endpoint &client, Rng rng,
                                   MemcachedParams params)
    : params_(params),
      graph_(sim, replyLink, client, rng, params.runVariability)
{
    TPV_ASSERT(params_.shards >= 1, "cluster needs at least one shard");
    TPV_ASSERT(params_.replicas >= 1, "cluster needs a cache replica");

    // mcrouter-style proxy: fixed parse + key-hash cost, not scaled
    // by the environment factor (protocol work, not data work).
    TierParams routerP;
    routerP.name = "mc-router";
    routerP.workers = params_.routerWorkers;
    routerP.work = fixedWork(params_.routerWork);
    routerP.envSensitive = false;
    router_ = &graph_.addTier(graph_.addMachine(serverCfg, "mc-router"),
                              std::move(routerP));

    // The cache tier mirrors MemcachedServer's work model: lognormal
    // base time plus a per-byte cost of the value, SETs paying the
    // store/LRU extra.
    const bool keyed = params_.cache.enabled();
    const MemcachedParams p = params_;
    TierParams cacheP;
    cacheP.name = "mc-cache";
    cacheP.workers = p.workers;
    cacheP.requestBytes = p.subRequestBytes;
    cacheP.admission = params_.traffic.admission;
    if (!keyed) {
        // Unkeyed (historical) shape: an infinite cache — the value
        // is ETC-sampled at service time and shared with the
        // response-size hook, like the single-tier server's
        // lastValueBytes_.
        auto lastValue = std::make_shared<std::uint32_t>(0);
        cacheP.work = [p, lastValue](const net::Message &req, Rng &r) {
            return etcServiceWork(p, req, lastValue.get(), r);
        };
        cacheP.responseBytesFn = [p, lastValue](const net::Message &req,
                                                Rng &) {
            return etcResponseBytes(p, req, *lastValue);
        };
    } else {
        // Keyed shape: the request's Zipf rank is looked up in the
        // shard's finite cache. A hit pays the value-copy cost and
        // stashes the stored value size in the message's byte count
        // for the response hook; a miss marks the opcode so the
        // completion handler cascades to the backing store instead
        // of replying. SETs store through the cache.
        cacheP.workMut = [this, p](net::Message &req, Rng &r) {
            auto work = static_cast<Time>(r.lognormalMeanSd(
                static_cast<double>(p.baseServiceTime),
                static_cast<double>(p.serviceTimeSd)));
            CacheModel &c = cacheFor(req);
            ServiceStats &s = graph_.mutableStats();
            TierBreakdown &tb = s.tiers[static_cast<std::size_t>(
                cache_->tierIndex())];
            if (static_cast<MemcachedOp>(req.kind) == MemcachedOp::Get) {
                const CacheModel::Result res = c.get(req.key);
                if (res.hit) {
                    ++s.cacheHits;
                    ++tb.cacheHits;
                    req.bytes = res.valueBytes;
                    work += static_cast<Time>(
                        p.nsPerValueByte *
                        static_cast<double>(res.valueBytes));
                    traceCacheEvent(graph_, cache_->tierIndex(), req,
                                    obs::SpanKind::CacheHit,
                                    res.valueBytes);
                } else {
                    ++s.cacheMisses;
                    ++tb.cacheMisses;
                    req.kind |= kMissFlag;
                    traceCacheEvent(graph_, cache_->tierIndex(), req,
                                    obs::SpanKind::CacheMiss, req.key);
                }
            } else {
                const std::uint32_t v = p.etc.valueBytesForKey(req.key);
                s.cacheEvictions += c.put(req.key, v);
                req.bytes = v;
                work += static_cast<Time>(
                            p.nsPerValueByte * static_cast<double>(v)) +
                        p.setExtraTime;
            }
            return work;
        };
        cacheP.responseBytesFn = [p](const net::Message &req, Rng &) {
            const auto op = static_cast<MemcachedOp>(
                req.kind & static_cast<std::uint8_t>(~kMissFlag));
            if (op == MemcachedOp::Get)
                return p.responseOverhead + req.bytes;
            return p.responseOverhead; // SET: status only
        };
        cacheP.trackShards = params_.shards;
    }
    cache_ = &graph_.addReplicatedTier(serverCfg, params_.replicas,
                                       std::move(cacheP));

    FanoutParams f;
    f.shards = params_.shards;
    f.replicas = params_.replicas;
    f.hedgeDelay = params_.hedgeDelay;
    f.policy = params_.hedgePolicy;
    f.hedgeBudget = params_.hedgeBudget;
    if (keyed) {
        // The key on the wire is the routing input, and shards pin to
        // replicas so a shard's working set lives in one cache.
        f.route = [shards = params_.shards](const net::Message &req) {
            return shardOf(req.key, shards);
        };
        f.pinShardToReplica = true;
        f.propagateKey = true;
    } else {
        f.route = [shards = params_.shards](const net::Message &req) {
            return shardOf(req.id, shards);
        };
    }
    f.mergeWork = params_.routerMergeWork;
    f.postWork = 0;
    f.link = params_.interLink;
    f.traffic = params_.traffic;
    fanout_ = &graph_.addFanout(
        *router_, *cache_, f, [this](const net::Message &req) {
            // req.bytes carries the cache shard's reply size (the
            // Fanout completion contract), so the client-facing
            // response echoes the very reply the cache produced —
            // GETs carry their own ETC-sampled value, exactly as on
            // the single-tier server.
            net::Message resp = req;
            resp.isResponse = true;
            graph_.respond(std::move(resp));
        });

    router_->setHandler(
        [this](const net::Message &req, Time) { fanout_->scatter(req); });
    graph_.setEntry(*router_);

    if (keyed) {
        // Backing store: one slow tier behind every cache shard's
        // misses, reached through a second route-one fan-out so link
        // delay, queueing and fault machinery apply to the detour.
        TierParams storeP;
        storeP.name = "mc-store";
        storeP.workers = params_.storeWorkers;
        storeP.work = lognormalWork(params_.storeTime,
                                    params_.storeTimeSd);
        storeP.requestBytes = params_.subRequestBytes;
        storeP.responseBytesFn = [p](const net::Message &req, Rng &) {
            return p.responseOverhead + p.etc.valueBytesForKey(req.key);
        };
        store_ = &graph_.addTier(
            graph_.addMachine(serverCfg, "mc-store"), std::move(storeP));

        FanoutParams fs;
        fs.shards = 1;
        fs.replicas = 1;
        fs.route = [](const net::Message &) { return 0; };
        fs.propagateKey = true;
        fs.mergeWork = 0;
        // The returning fill pays the SET-side bookkeeping on the
        // cache tier before the reply continues to the router.
        fs.postWork = params_.setExtraTime;
        fs.link = params_.storeLink;
        storeFanout_ = &graph_.addFanout(
            *cache_, *store_, fs, [this](const net::Message &req) {
                // The store answered: fill the cache and re-enter the
                // router fan-out's merge path as a (now slow) cache
                // reply. The cache's own lookup work rode along in
                // serviceWork.
                net::Message m = req;
                m.kind = static_cast<std::uint8_t>(
                    m.kind & static_cast<std::uint8_t>(~kMissFlag));
                const std::uint32_t v =
                    params_.etc.valueBytesForKey(m.key);
                ServiceStats &s = graph_.mutableStats();
                ++s.cacheFills;
                s.cacheEvictions += cacheFor(m).put(m.key, v);
                m.bytes = v;
                traceCacheEvent(graph_, cache_->tierIndex(), m,
                                obs::SpanKind::CacheFill, v);
                fanout_->replyFromChild(
                    m, static_cast<Time>(m.serviceWork));
            });

        // The cache tier's completion: reply on a hit or a SET,
        // cascade to the store on a miss. Installed after the store
        // fan-out exists (it replaced the router fan-out's default).
        cache_->setHandler([this](const net::Message &msg, Time work) {
            if ((msg.kind & kMissFlag) != 0) {
                net::Message m = msg;
                m.serviceWork = static_cast<std::uint32_t>(work);
                storeFanout_->scatter(m);
                return;
            }
            fanout_->replyFromChild(msg, work);
        });

        // One finite cache per (replica, shard), each with its own
        // rng stream (sampled-LFU / random eviction), prewarmed with
        // the hottest keys of its shard unless the study asks for a
        // cold start. Replica-major order keeps construction (and
        // the rng fork sequence) deterministic.
        caches_.reserve(static_cast<std::size_t>(params_.replicas) *
                        static_cast<std::size_t>(params_.shards));
        const int cacheTier = cache_->tierIndex();
        for (int r = 0; r < params_.replicas; ++r) {
            for (int s = 0; s < params_.shards; ++s) {
                caches_.emplace_back(params_.cache,
                                     graph_.rng().fork());
                if (!params_.cache.coldStart)
                    prewarm(caches_.back(), s);
                caches_.back().resetCounters();
                // Capacity churn as global markers (rootId 0): which
                // replica/shard evicted or was flushed, not which
                // request triggered it.
                caches_.back().setObserver(
                    [this, cacheTier, r, s](bool flushed) {
                        obs::TraceRecorder *tr = graph_.trace();
                        if (tr == nullptr)
                            return;
                        obs::SpanRecord rec;
                        rec.start = rec.end = graph_.sim().now();
                        rec.arg = flushed ? 1u : 0u;
                        rec.kind = obs::SpanKind::CacheEvict;
                        rec.tier = static_cast<std::uint8_t>(cacheTier);
                        rec.shard = static_cast<std::int16_t>(s);
                        rec.replica = static_cast<std::int16_t>(r);
                        tr->record(rec);
                    });
            }
        }

        // Let fault::FaultKind::CacheFlush reach the finite caches:
        // wipe every shard the targeted replica owns (a replica
        // restarts with all its shards cold, not one).
        graph_.setCacheFlushHook([this](Tier &tier, int replica) {
            if (&tier != cache_)
                return;
            for (int s = 0; s < params_.shards; ++s)
                cacheModel(replica, s).flush();
        });

        // Per-replica cache hit rate on the metrics timeline: summed
        // over the shards the replica owns.
        graph_.onRegisterMetrics([this](obs::MetricsRegistry &m) {
            for (int r = 0; r < params_.replicas; ++r) {
                m.add("cache_hitrate.r" + std::to_string(r), [this, r]() {
                    std::uint64_t hit = 0;
                    std::uint64_t miss = 0;
                    for (int s = 0; s < params_.shards; ++s) {
                        CacheModel &c = cacheModel(r, s);
                        hit += c.hits();
                        miss += c.misses();
                    }
                    const std::uint64_t total = hit + miss;
                    if (total == 0)
                        return 0.0;
                    return static_cast<double>(hit) /
                           static_cast<double>(total);
                });
            }
        });
    }
}

CacheModel &
MemcachedCluster::cacheFor(const net::Message &msg)
{
    const auto idx =
        static_cast<std::size_t>(msg.replica) *
            static_cast<std::size_t>(params_.shards) +
        static_cast<std::size_t>(msg.shard);
    return caches_.at(idx);
}

CacheModel &
MemcachedCluster::cacheModel(int replica, int shard)
{
    TPV_ASSERT(!caches_.empty(), "cacheModel() needs keyed mode");
    return caches_.at(static_cast<std::size_t>(replica) *
                          static_cast<std::size_t>(params_.shards) +
                      static_cast<std::size_t>(shard));
}

void
MemcachedCluster::prewarm(CacheModel &cache, int shard)
{
    const CacheShape &cs = params_.cache;
    // The hottest ranks that hash to this shard, up to its capacity.
    std::vector<std::uint64_t> ranks;
    const std::uint64_t cap =
        cs.capacityEntries > 0 ? cs.capacityEntries : cs.keys;
    for (std::uint64_t k = 0; k < cs.keys && ranks.size() < cap; ++k) {
        if (shardOf(k, params_.shards) == shard)
            ranks.push_back(k);
    }
    // Insert coldest-first so the hottest keys end at the MRU end
    // (and survive byte-cap evictions during the fill).
    for (auto it = ranks.rbegin(); it != ranks.rend(); ++it)
        cache.put(*it, params_.etc.valueBytesForKey(*it));
}

} // namespace svc
} // namespace tpv
