/** @file Tests for the Memcached service model and the ETC workload. */

#include "svc/memcached.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/experiment.hh"
#include "sim/simulator.hh"
#include "stats/descriptive.hh"

namespace tpv {
namespace svc {
namespace {

hw::HwConfig
serverCfg()
{
    hw::HwConfig c = hw::HwConfig::serverBaseline();
    c.cstates = {hw::CState::C0};
    return c;
}

struct ClientSink : net::Endpoint
{
    std::vector<net::Message> responses;

    void
    onMessage(const net::Message &m) override
    {
        responses.push_back(m);
    }
};

TEST(EtcModel, ValueSizesMatchGpdMean)
{
    // GPD(15, 214.476, 0.348) has mean mu + sigma/(1-xi) ~ 344B
    // (clamping trims the far tail slightly).
    KeyspaceModel etc;
    Rng rng(3);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += etc.sampleValueBytes(rng);
    EXPECT_NEAR(sum / n, 330.0, 25.0);
}

TEST(EtcModel, KeySizesNearGevLocation)
{
    KeyspaceModel etc;
    Rng rng(5);
    double sum = 0;
    const int n = 100000;
    std::uint32_t mn = UINT32_MAX, mx = 0;
    for (int i = 0; i < n; ++i) {
        const std::uint32_t k = etc.sampleKeyBytes(rng);
        sum += k;
        mn = std::min(mn, k);
        mx = std::max(mx, k);
    }
    EXPECT_NEAR(sum / n, 36.0, 4.0); // GEV mean = mu + sigma*g ~ 36B
    EXPECT_GE(mn, 1u);
    EXPECT_LE(mx, 250u); // memcached's protocol key limit
}

TEST(EtcModel, GetFractionRespected)
{
    KeyspaceModel etc;
    Rng rng(7);
    int gets = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        gets += (etc.sampleOp(rng) == MemcachedOp::Get);
    EXPECT_NEAR(static_cast<double>(gets) / n, etc.getFraction, 0.005);
}

TEST(EtcModel, SetRequestsCarryTheValue)
{
    KeyspaceModel etc;
    EXPECT_GT(etc.requestBytes(MemcachedOp::Set, 30, 300),
              etc.requestBytes(MemcachedOp::Get, 30, 300));
}

struct Rig
{
    Simulator sim;
    hw::Machine machine;
    net::Link link;
    ClientSink client;
    MemcachedServer server;

    explicit Rig(MemcachedParams params = {})
        : machine(sim, serverCfg()),
          link(sim, Rng(1), net::Link::Params{0, 0.0, 10.0}),
          server(sim, machine, link, client, Rng(2), params)
    {
    }
};

TEST(MemcachedServer, ServiceTimeAroundTenMicroseconds)
{
    // The paper cites ~10us average server-side processing time.
    MemcachedParams p;
    p.runVariability = 0; // isolate the service-time model
    Rig rig(p);
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        net::Message req;
        req.id = static_cast<std::uint64_t>(i);
        req.conn = static_cast<std::uint32_t>(i);
        req.kind = static_cast<std::uint8_t>(MemcachedOp::Get);
        rig.server.onMessage(req);
        rig.sim.run();
    }
    const double meanUs =
        toUsec(rig.server.stats().serviceWorkDispatched) / n;
    EXPECT_GT(meanUs, 7.0);
    EXPECT_LT(meanUs, 13.0);
}

TEST(MemcachedServer, GetResponsesCarryValues)
{
    Rig rig;
    net::Message req;
    req.kind = static_cast<std::uint8_t>(MemcachedOp::Get);
    rig.server.onMessage(req);
    rig.sim.run();
    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_GT(rig.client.responses[0].bytes,
              rig.server.params().responseOverhead);
}

TEST(MemcachedServer, SetResponsesAreSmall)
{
    Rig rig;
    net::Message req;
    req.kind = static_cast<std::uint8_t>(MemcachedOp::Set);
    rig.server.onMessage(req);
    rig.sim.run();
    ASSERT_EQ(rig.client.responses.size(), 1u);
    EXPECT_EQ(rig.client.responses[0].bytes,
              rig.server.params().responseOverhead);
}

TEST(MemcachedServer, SetsCostMoreThanGets)
{
    MemcachedParams p;
    p.runVariability = 0;
    p.serviceTimeSd = 0;           // deterministic base
    p.etc.valueSigma = 1e-9;       // pin value size
    p.etc.valueXi = 0;
    Rig rig(p);

    net::Message get;
    get.kind = static_cast<std::uint8_t>(MemcachedOp::Get);
    rig.server.onMessage(get);
    rig.sim.run();
    const Time afterGet = rig.server.stats().serviceWorkDispatched;

    net::Message set;
    set.kind = static_cast<std::uint8_t>(MemcachedOp::Set);
    rig.server.onMessage(set);
    rig.sim.run();
    const Time setWork =
        rig.server.stats().serviceWorkDispatched - afterGet;
    EXPECT_NEAR(static_cast<double>(setWork - afterGet),
                static_cast<double>(p.setExtraTime), 100.0);
}

TEST(MemcachedServer, TenWorkersByDefault)
{
    Rig rig;
    EXPECT_EQ(rig.server.tier(0).pool().workers(), 10);
}

/** Build a cluster from @p p (fatal() on an invalid shape). */
void
buildCluster(const MemcachedParams &p)
{
    Simulator sim;
    net::Link link(sim, Rng(1));
    ClientSink client;
    MemcachedCluster cluster(sim, serverCfg(), link, client, Rng(2), p);
}

/** A valid keyed cluster shape: 2 shards over a 1K-key keyspace. */
MemcachedParams
keyedParams()
{
    MemcachedParams p;
    p.shards = 2;
    p.cache.keys = 1 << 10;
    return p;
}

TEST(MemcachedDeathTest, RejectsNegativeServiceTimeSd)
{
    MemcachedParams p;
    p.serviceTimeSd = -1;
    EXPECT_EXIT(Rig rig(p), ::testing::ExitedWithCode(1),
                "MemcachedParams::serviceTimeSd");
    // The keyed cluster's cache tier builds the same work model.
    p = keyedParams();
    p.serviceTimeSd = -1;
    EXPECT_EXIT(buildCluster(p), ::testing::ExitedWithCode(1),
                "MemcachedParams::serviceTimeSd");
}

TEST(MemcachedDeathTest, RejectsInvalidWorkKnobs)
{
    // Knobs of the work model both deployments share: checked by the
    // single-tier server and by the cluster's cache tier.
    struct Case
    {
        void (*set)(MemcachedParams &);
        const char *field;
    };
    const Case shared[] = {
        {[](MemcachedParams &p) { p.baseServiceTime = 0; },
         "MemcachedParams::baseServiceTime"},
        {[](MemcachedParams &p) { p.baseServiceTime = -usec(1); },
         "MemcachedParams::baseServiceTime"},
        {[](MemcachedParams &p) { p.nsPerValueByte = -1; },
         "MemcachedParams::nsPerValueByte"},
        {[](MemcachedParams &p) { p.nsPerValueByte = std::nan(""); },
         "MemcachedParams::nsPerValueByte"},
        {[](MemcachedParams &p) { p.nsPerValueByte = INFINITY; },
         "MemcachedParams::nsPerValueByte"},
        {[](MemcachedParams &p) { p.setExtraTime = -1; },
         "MemcachedParams::setExtraTime"},
    };
    for (const Case &c : shared) {
        MemcachedParams p;
        c.set(p);
        EXPECT_EXIT(Rig rig(p), ::testing::ExitedWithCode(1), c.field);
        p = keyedParams();
        c.set(p);
        EXPECT_EXIT(buildCluster(p), ::testing::ExitedWithCode(1),
                    c.field);
    }
    // Knobs of the cluster's router and backing store.
    const Case cluster[] = {
        {[](MemcachedParams &p) { p.storeTime = 0; },
         "MemcachedParams::storeTime"},
        {[](MemcachedParams &p) { p.storeTimeSd = -1; },
         "MemcachedParams::storeTimeSd"},
        {[](MemcachedParams &p) { p.routerWork = -1; },
         "MemcachedParams::routerWork"},
        {[](MemcachedParams &p) { p.routerMergeWork = -1; },
         "MemcachedParams::routerMergeWork"},
    };
    for (const Case &c : cluster) {
        MemcachedParams p = keyedParams();
        c.set(p);
        EXPECT_EXIT(buildCluster(p), ::testing::ExitedWithCode(1),
                    c.field);
    }
}

TEST(MemcachedCluster, PrewarmHoldsHottestRanksPerShard)
{
    // Every (replica, shard) cache starts with exactly the first `cap`
    // ranks that hash to its shard (all of them when the shard owns
    // fewer), found here by brute force over the keyspace. Under
    // sampled LFU an over-full prewarm would evict hot ranks at
    // random, so the fill must stop at the capacity exactly.
    const std::uint64_t keys = 3000;
    const std::uint64_t cap = 200;
    for (EvictionPolicy policy :
         {EvictionPolicy::Lru, EvictionPolicy::Lfu}) {
        for (int shards : {1, 3, 8}) {
            MemcachedParams p;
            p.shards = shards;
            p.replicas = 2;
            p.cache.keys = keys;
            p.cache.capacityEntries = cap;
            p.cache.eviction = policy;
            Simulator sim;
            net::Link link(sim, Rng(1));
            ClientSink client;
            MemcachedCluster cluster(sim, serverCfg(), link, client, Rng(2),
                                     p);
            for (int s = 0; s < shards; ++s) {
                std::vector<bool> want(keys, false);
                std::uint64_t held = 0;
                for (std::uint64_t k = 0; k < keys && held < cap; ++k) {
                    if (MemcachedCluster::shardOf(k, shards) == s) {
                        want[k] = true;
                        ++held;
                    }
                }
                for (int r = 0; r < p.replicas; ++r) {
                    CacheModel &c = cluster.cacheModel(r, s);
                    ASSERT_EQ(c.size(), held)
                        << toString(policy) << ", " << shards << " shards";
                    for (std::uint64_t k = 0; k < keys; ++k) {
                        ASSERT_EQ(c.get(k).hit, want[k])
                            << toString(policy) << ", " << shards
                            << " shards, replica " << r << ", shard " << s
                            << ", rank " << k;
                    }
                }
            }
        }
    }
}

TEST(MemcachedClusterDeathTest, RejectsZeroShards)
{
    MemcachedParams p;
    p.shards = 0;
    EXPECT_EXIT(buildCluster(p), ::testing::ExitedWithCode(1),
                "MemcachedParams::shards");
    // Through runOnce too, rather than quietly on the single-tier
    // server.
    auto cfg = core::ExperimentConfig::forMemcached(20e3);
    cfg.gen.duration = msec(5);
    cfg.memcached.shards = 0;
    EXPECT_EXIT(core::runOnce(cfg), ::testing::ExitedWithCode(1),
                "MemcachedParams::shards must be >= 1");
}

TEST(MemcachedClusterDeathTest, RejectsZeroReplicas)
{
    MemcachedParams p;
    p.replicas = 0;
    EXPECT_EXIT(buildCluster(p), ::testing::ExitedWithCode(1),
                "MemcachedParams::replicas");
}

TEST(MemcachedClusterDeathTest, RejectsShardsWithoutACacheShape)
{
    // The cluster routes on the key, so widening a memcached run
    // without a keyspace is rejected rather than built unkeyed.
    auto cfg = core::ExperimentConfig::forMemcached(20e3);
    cfg.gen.duration = msec(5);
    cfg.memcached.shards = 4;
    EXPECT_EXIT(core::runOnce(cfg), ::testing::ExitedWithCode(1),
                "MemcachedParams::shards.*CacheShape::keys");
    cfg.memcached.shards = 1;
    cfg.memcached.replicas = 2;
    EXPECT_EXIT(core::runOnce(cfg), ::testing::ExitedWithCode(1),
                "replicas.*CacheShape::keys");
}

TEST(MemcachedClusterDeathTest, RejectsAnInvalidCacheShape)
{
    // The cluster validates its cache shape itself, so a shape set on
    // MemcachedParams directly (not through core::applyCacheShape)
    // cannot hang the run or wrap keys either.
    MemcachedParams p;
    p.shards = 2;
    p.cache.keys = 1 << 10;
    p.cache.skew = std::nan("");
    EXPECT_EXIT(buildCluster(p), ::testing::ExitedWithCode(1),
                "CacheShape::skew");
    p.cache.skew = 0.99;
    p.cache.keys = (std::uint64_t{1} << 32) + 1;
    EXPECT_EXIT(buildCluster(p), ::testing::ExitedWithCode(1),
                "CacheShape::keys");
    p.cache.keys = 1 << 10;
    p.cache.capacityEntries = std::uint64_t{1} << 40;
    EXPECT_EXIT(buildCluster(p), ::testing::ExitedWithCode(1),
                "CacheShape::capacityEntries");
}

} // namespace
} // namespace svc
} // namespace tpv
