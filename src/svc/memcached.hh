/**
 * @file
 * Memcached service model (paper Section IV-B): a lightweight
 * key-value store with ~10 us server-side processing time, 10 worker
 * threads pinned on one socket, serving the Facebook ETC workload
 * mix (Atikoglu et al., SIGMETRICS'12) that the paper drives through
 * mutilate.
 */

#ifndef TPV_SVC_MEMCACHED_HH
#define TPV_SVC_MEMCACHED_HH

#include "svc/cache.hh"
#include "svc/keyspace.hh"
#include "svc/service.hh"

namespace tpv {
namespace svc {

/** Tunables for the Memcached service model. */
struct MemcachedParams
{
    /** Paper: "10 worker threads pinned on a single socket". */
    int workers = 10;
    /**
     * Base processing time; with the value-copy term below the mean
     * lands near the ~10 us server-side time the paper cites [4],[7].
     */
    Time baseServiceTime = usec(8);
    /** Lognormal sd of the base time (>= 0; 0 = fixed). */
    Time serviceTimeSd = usec(2.5);
    /** memcpy-ish cost per value byte. */
    double nsPerValueByte = 2.0;
    /** Extra work for a SET (allocation + LRU update). */
    Time setExtraTime = usec(2);
    /** Protocol framing bytes on a response. */
    std::uint32_t responseOverhead = 30;
    /** Per-run environment factor sd on service times. */
    double runVariability = 0.025;
    KeyspaceModel etc;

    // ---- keyed workload / finite caches (MemcachedCluster only) ----
    // The cluster needs a cache shape (cache.keys > 0): requests
    // carry a Zipf rank, shard routing hashes the key, each
    // (replica, shard) pair gets a finite CacheModel, and GET misses
    // cascade to a backing-store tier. The single-tier server ignores
    // these knobs.

    /** Keyspace / capacity / eviction axis. */
    CacheShape cache{};
    /** Backing-store worker threads (database-ish pool). */
    int storeWorkers = 8;
    /** Mean backing-store service time: the store is the slow tier a
     *  cache miss actually costs — two orders above a cache hit. */
    Time storeTime = usec(500);
    Time storeTimeSd = usec(150);
    /** Cache <-> backing store hop. */
    net::Link::Params storeLink{};

    // ---- sharded-cluster shape (MemcachedCluster) ----
    // The stock single-tier server is built while shards == 1,
    // replicas == 1 and the cache shape is off; any wider shape routes
    // through a mcrouter-style front tier that key-hashes each request
    // to one cache shard, and needs a cache shape (runOnce fatal()s
    // without one).

    /** Logical key-space shards (key-hash routed, not scattered). */
    int shards = 1;
    /** Cache machines backing the shards (hedges/failover targets). */
    int replicas = 1;
    /** Hedge a routed GET/SET after this delay (0 = off). */
    Time hedgeDelay = 0;
    /** Hedging policy; Auto = Fixed when hedgeDelay > 0 else None. */
    HedgePolicy hedgePolicy = HedgePolicy::Auto;
    /** Router threads (mcrouter proxy pool). */
    int routerWorkers = 4;
    /** Router parse + key-hash cost per request. */
    Time routerWork = usec(2);
    /** Router cost to relay the shard's reply to the client. */
    Time routerMergeWork = usec(1);
    /** Wire size of a routed sub-request (header + typical key). */
    std::uint32_t subRequestBytes = 64;
    /** Router <-> cache hop. */
    net::Link::Params interLink{};
    /** Traffic management: sub-request deadlines/retries and breakers
     *  on the route-one edge, admission control on the cache tier
     *  (cluster shape only — the single-tier server has no edge). */
    TrafficPolicy traffic{};
};

/**
 * The Memcached server. GET responses carry an ETC-sampled value;
 * service time scales with the value size.
 */
class MemcachedServer : public SingleTierServer
{
  public:
    MemcachedServer(Simulator &sim, hw::Machine &machine,
                    net::Link &replyLink, net::Endpoint &client, Rng rng,
                    MemcachedParams params = {});

    const MemcachedParams &params() const { return params_; }

  protected:
    Time serviceWork(const net::Message &req, Rng &rng) override;
    std::uint32_t responseBytes(const net::Message &req,
                                Rng &rng) override;

  private:
    MemcachedParams params_;
    /** Lognormal(baseServiceTime, serviceTimeSd). */
    Rng::Lognormal baseWork_;
    std::uint32_t lastValueBytes_ = 0;
};

/**
 * The sharded Memcached deployment: an mcrouter-style front tier that
 * key-hashes every request to one cache shard, served by a replicated
 * cache tier through a route-one Fanout — so hedging, tied requests
 * and replica failover apply to a cache exactly as to a search
 * fan-out.
 *
 * The cluster is keyed (params.cache must be enabled, else the
 * constructor fatal()s): requests carry a Zipf popularity rank
 * (Message::key), routing hashes that key, every (replica, shard)
 * pair owns a finite CacheModel, and a GET that misses cascades
 * through a second route-one Fanout to a slow backing-store tier
 * before replying — so hedging, failover and traffic management
 * compose with cache misses for free.
 */
class MemcachedCluster : public net::Endpoint
{
  public:
    MemcachedCluster(Simulator &sim, const hw::HwConfig &serverCfg,
                     net::Link &replyLink, net::Endpoint &client, Rng rng,
                     MemcachedParams params = {});

    /** Client request arrives at the router NIC. */
    void onMessage(const net::Message &req) override
    {
        graph_.onMessage(req);
    }

    const ServiceStats &stats() const { return graph_.stats(); }
    const MemcachedParams &params() const { return params_; }

    /** The underlying graph (fault injection, diagnostics). */
    ServiceGraph &graph() { return graph_; }

    hw::Machine &router() { return router_->machine(); }

    /** Cache machine of @p replica. */
    hw::Machine &cache(int replica = 0)
    {
        return cache_->machine(replica);
    }

    /** The route-one edge (tests / diagnostics). */
    const Fanout &fanout() const { return *fanout_; }

    /** Deterministic key-hash shard of a key rank. */
    static int shardOf(std::uint64_t key, int shards);

    /** Cache model of (replica, shard). */
    CacheModel &cacheModel(int replica, int shard);

  private:
    /** The CacheModel serving @p msg (replica, shard on the wire). */
    CacheModel &cacheFor(const net::Message &msg);

    /** Per shard, the hottest ranks that hash to it, hottest first,
     *  up to one cache's entry capacity: what a long-running cluster
     *  holds. Shared by every replica's cache of the shard. */
    std::vector<std::vector<std::uint32_t>> hottestPerShard() const;

    /** Fill a cache with @p ranks (from hottestPerShard()). */
    void prewarm(CacheModel &cache,
                 const std::vector<std::uint32_t> &ranks);

    MemcachedParams params_;
    ServiceGraph graph_;
    Tier *router_;
    Tier *cache_;
    Fanout *fanout_;
    /** Backing store behind cache misses. */
    Tier *store_ = nullptr;
    Fanout *storeFanout_ = nullptr;
    /** Finite caches, replica-major: caches_[replica * shards +
     *  shard]. */
    std::vector<CacheModel> caches_;
};

} // namespace svc
} // namespace tpv

#endif // TPV_SVC_MEMCACHED_HH
