#include "svc/memcached.hh"

#include <cmath>
#include <utility>

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
 * The lognormal base-time distribution of the memcached work model,
 * built once per server or cache tier; fatal() naming the field on a
 * base-time, per-byte or SET knob that would panic mid-run.
 */
Rng::Lognormal
baseWorkModel(const MemcachedParams &p)
{
    if (!std::isfinite(p.nsPerValueByte) || p.nsPerValueByte < 0) {
        fatal("MemcachedParams::nsPerValueByte must be finite and >= 0, "
              "got ",
              p.nsPerValueByte);
    }
    requireNonNegative("MemcachedParams::setExtraTime", p.setExtraTime);
    return lognormalModel(p.baseServiceTime, p.serviceTimeSd,
                          "MemcachedParams::baseServiceTime",
                          "MemcachedParams::serviceTimeSd");
}

} // namespace

MemcachedServer::MemcachedServer(Simulator &sim, hw::Machine &machine,
                                 net::Link &replyLink,
                                 net::Endpoint &client, Rng rng,
                                 MemcachedParams params)
    : ServiceGraph(sim, replyLink, client, rng, params.runVariability),
      params_(params), baseWork_(baseWorkModel(params_))
{
    TierParams p = serverTier(params_.workers);
    // The value is sampled at service time: GETs pay to read and copy
    // it into the response; SETs pay to store it plus bookkeeping.
    p.work = [this](net::Message &req, Rng &r) {
        auto work = static_cast<Time>(r.lognormal(baseWork_));
        lastValueBytes_ = params_.etc.sampleValueBytes(r);
        work += static_cast<Time>(params_.nsPerValueByte *
                                  static_cast<double>(lastValueBytes_));
        if (static_cast<MemcachedOp>(req.kind) == MemcachedOp::Set)
            work += params_.setExtraTime;
        return work;
    };
    p.responseBytesFn = [this](const net::Message &req, Rng &) {
        if (static_cast<MemcachedOp>(req.kind) == MemcachedOp::Get)
            return params_.responseOverhead + lastValueBytes_;
        return params_.responseOverhead; // SET: status only
    };
    setEntry(addTier(machine, std::move(p)));
}

int
MemcachedCluster::shardOf(std::uint64_t key, int shards)
{
    // SplitMix64 finaliser: uniform and deterministic per key.
    std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
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
    : ServiceGraph(sim, replyLink, client, rng, params.runVariability),
      params_(params)
{
    if (params_.shards < 1) {
        fatal("MemcachedParams::shards must be >= 1, got ",
              params_.shards);
    }
    if (params_.replicas < 1) {
        fatal("MemcachedParams::replicas must be >= 1, got ",
              params_.replicas);
    }
    params_.cache.validate();
    if (!params_.cache.enabled()) {
        fatal("MemcachedParams::shards = ", params_.shards,
              " / replicas = ", params_.replicas,
              " need a cache shape (CacheShape::keys > 0): the cluster "
              "routes on the key");
    }
    requireNonNegative("MemcachedParams::routerWork", params_.routerWork);
    requireNonNegative("MemcachedParams::routerMergeWork",
                       params_.routerMergeWork);

    // mcrouter-style proxy: fixed parse + key-hash cost, not scaled
    // by the environment factor (protocol work, not data work).
    TierParams routerP;
    routerP.name = "mc-router";
    routerP.workers = params_.routerWorkers;
    routerP.work = fixedWork(params_.routerWork);
    routerP.envSensitive = false;
    router_ = &addTier(addMachine(serverCfg, "mc-router"),
                       std::move(routerP));

    // The cache tier: the request's Zipf rank is looked up in the
    // shard's finite cache. A hit pays MemcachedServer's base time
    // plus the value-copy cost and stashes the stored value size in
    // the message's byte count for the response hook; a miss marks
    // the opcode so the completion handler cascades to the backing
    // store instead of replying. SETs store through the cache.
    const MemcachedParams p = params_;
    const Rng::Lognormal baseWork = baseWorkModel(p);
    TierParams cacheP;
    cacheP.name = "mc-cache";
    cacheP.workers = p.workers;
    cacheP.requestBytes = p.subRequestBytes;
    cacheP.admission = params_.traffic.admission;
    cacheP.work = [this, p, baseWork](net::Message &req, Rng &r) {
        auto work = static_cast<Time>(r.lognormal(baseWork));
        CacheModel &c = cacheFor(req);
        ServiceStats &s = mutableStats();
        TierBreakdown &tb =
            s.tiers[static_cast<std::size_t>(cache_->tierIndex())];
        if (static_cast<MemcachedOp>(req.kind) == MemcachedOp::Get) {
            const CacheModel::Result res = c.get(req.key);
            if (res.hit) {
                ++s.cacheHits;
                ++tb.cacheHits;
                req.bytes = res.valueBytes;
                work += static_cast<Time>(
                    p.nsPerValueByte * static_cast<double>(res.valueBytes));
                if (obs::TraceRecorder *tr = trace()) {
                    tr->instant(obs::SpanKind::CacheHit, this->sim().now(),
                                localRoot(req),
                                {cache_->tierIndex(), req.shard,
                                 req.replica},
                                res.valueBytes);
                }
            } else {
                ++s.cacheMisses;
                ++tb.cacheMisses;
                req.kind |= kMissFlag;
                if (obs::TraceRecorder *tr = trace()) {
                    tr->instant(obs::SpanKind::CacheMiss, this->sim().now(),
                                localRoot(req),
                                {cache_->tierIndex(), req.shard,
                                 req.replica},
                                req.key);
                }
            }
        } else {
            const std::uint32_t v = p.etc.valueBytesForKey(req.key);
            s.cacheEvictions += c.put(req.key, v);
            req.bytes = v;
            work += static_cast<Time>(p.nsPerValueByte *
                                      static_cast<double>(v)) +
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
    cache_ = &addReplicatedTier(serverCfg, params_.replicas,
                                std::move(cacheP));

    FanoutParams f;
    f.shards = params_.shards;
    f.replicas = params_.replicas;
    f.hedgeDelay = params_.hedgeDelay;
    f.policy = params_.hedgePolicy;
    // The key on the wire is the routing input (routing also pins
    // shards to replicas, so a shard's working set lives in one
    // cache).
    f.route = [shards = params_.shards](const net::Message &req) {
        return shardOf(req.key, shards);
    };
    f.mergeWork = params_.routerMergeWork;
    f.postWork = 0;
    f.link = params_.interLink;
    f.traffic = params_.traffic;
    fanout_ = &addFanout(
        *router_, *cache_, f, [this](const net::Message &req) {
            // req.bytes carries the cache shard's reply size (the
            // Fanout completion contract), so the client-facing
            // response echoes the very reply the cache produced —
            // GETs carry their own ETC-sampled value, exactly as on
            // the single-tier server.
            net::Message resp = req;
            resp.isResponse = true;
            respond(resp);
        });

    router_->setHandler(
        [this](const net::Message &req, Time) { fanout_->scatter(req); });
    setEntry(*router_);

    // Backing store: one slow tier behind every cache shard's
    // misses, reached through a second route-one fan-out so link
    // delay, queueing and fault machinery apply to the detour.
    TierParams storeP;
    storeP.name = "mc-store";
    storeP.workers = params_.storeWorkers;
    storeP.work = lognormalWork(params_.storeTime, params_.storeTimeSd,
                                "MemcachedParams::storeTime",
                                "MemcachedParams::storeTimeSd");
    storeP.requestBytes = params_.subRequestBytes;
    storeP.responseBytesFn = [p](const net::Message &req, Rng &) {
        return p.responseOverhead + p.etc.valueBytesForKey(req.key);
    };
    store_ = &addTier(addMachine(serverCfg, "mc-store"),
                      std::move(storeP));

    FanoutParams fs;
    fs.shards = 1;
    fs.replicas = 1;
    fs.route = [](const net::Message &) { return 0; };
    fs.mergeWork = 0;
    // The returning fill pays the SET-side bookkeeping on the
    // cache tier before the reply continues to the router.
    fs.postWork = params_.setExtraTime;
    fs.link = params_.storeLink;
    storeFanout_ = &addFanout(
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
            ServiceStats &s = mutableStats();
            ++s.cacheFills;
            s.cacheEvictions += cacheFor(m).put(m.key, v);
            m.bytes = v;
            if (obs::TraceRecorder *tr = trace()) {
                tr->instant(obs::SpanKind::CacheFill, this->sim().now(),
                            localRoot(m),
                            {cache_->tierIndex(), m.shard, m.replica}, v);
            }
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
    const std::vector<std::vector<std::uint32_t>> hottest =
        params_.cache.coldStart
            ? std::vector<std::vector<std::uint32_t>>{}
            : hottestPerShard();
    const int cacheTier = cache_->tierIndex();
    for (int r = 0; r < params_.replicas; ++r) {
        for (int s = 0; s < params_.shards; ++s) {
            caches_.emplace_back(params_.cache, this->rng().fork());
            if (!params_.cache.coldStart)
                prewarm(caches_.back(),
                        hottest[static_cast<std::size_t>(s)]);
            caches_.back().resetCounters();
            // Capacity churn as global markers (rootId 0): which
            // replica/shard evicted, not which request triggered
            // it.
            caches_.back().setObserver([this, cacheTier, r, s] {
                if (obs::TraceRecorder *tr = trace()) {
                    const Time now = this->sim().now();
                    tr->marker(obs::SpanKind::CacheEvict, now, now,
                               {cacheTier, s, r});
                }
            });
        }
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
    return caches_.at(static_cast<std::size_t>(replica) *
                          static_cast<std::size_t>(params_.shards) +
                      static_cast<std::size_t>(shard));
}

std::vector<std::vector<std::uint32_t>>
MemcachedCluster::hottestPerShard() const
{
    // One pass over the ranks, hottest first, until every shard holds
    // its capacity (or the keyspace runs out).
    const CacheShape &cs = params_.cache;
    const std::uint64_t cap =
        cs.capacityEntries > 0 ? cs.capacityEntries : cs.keys;
    std::vector<std::vector<std::uint32_t>> out(
        static_cast<std::size_t>(params_.shards));
    int open = params_.shards;
    for (std::uint64_t k = 0; k < cs.keys && open > 0; ++k) {
        auto &ranks =
            out[static_cast<std::size_t>(shardOf(k, params_.shards))];
        if (ranks.size() < cap) {
            ranks.push_back(static_cast<std::uint32_t>(k));
            if (ranks.size() == cap)
                --open;
        }
    }
    return out;
}

void
MemcachedCluster::prewarm(CacheModel &cache,
                          const std::vector<std::uint32_t> &ranks)
{
    // Insert coldest-first so the hottest keys end at the MRU end
    // (and survive byte-cap evictions during the fill).
    for (auto it = ranks.rbegin(); it != ranks.rend(); ++it)
        cache.put(*it, params_.etc.valueBytesForKey(*it));
}

} // namespace svc
} // namespace tpv
