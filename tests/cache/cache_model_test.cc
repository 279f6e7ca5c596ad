/** @file Tests for the finite-capacity cache model: bookkeeping,
 *  eviction policies, determinism, and the LRU hit rate against the
 *  Che approximation. */

#include "svc/cache.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "svc/keyspace.hh"

namespace tpv {
namespace svc {
namespace {

CacheShape
shape(std::uint64_t keys, std::uint64_t capacity,
      EvictionPolicy eviction = EvictionPolicy::Lru)
{
    CacheShape s;
    s.keys = keys;
    s.capacityEntries = capacity;
    s.eviction = eviction;
    return s;
}

TEST(CacheShape, DisabledShapeHasEmptyLabel)
{
    EXPECT_TRUE(CacheShape{}.label().empty());
    EXPECT_FALSE(CacheShape{}.enabled());
}

TEST(CacheShape, LabelNamesTheKnobs)
{
    CacheShape s = shape(1 << 16, 1 << 12);
    EXPECT_EQ(s.label(), "z0.99k64Kc4K-lru");
    s.eviction = EvictionPolicy::Slru;
    s.coldStart = true;
    EXPECT_EQ(s.label(), "z0.99k64Kc4K-slru-cold");
    CacheShape uncapped = shape(1 << 10, 0);
    EXPECT_EQ(uncapped.label(), "z0.99k1KcINF-lru");
}

TEST(CacheModel, HitAndMissAccounting)
{
    CacheModel c(shape(100, 10), Rng(1));
    EXPECT_FALSE(c.get(1).hit);
    c.put(1, 64);
    const CacheModel::Result r = c.get(1);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.valueBytes, 64u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.bytesUsed(), 64u);
}

TEST(CacheModel, OverwriteUpdatesBytes)
{
    CacheModel c(shape(100, 10), Rng(1));
    c.put(1, 64);
    c.put(1, 128);
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.bytesUsed(), 128u);
    EXPECT_EQ(c.get(1).valueBytes, 128u);
}

TEST(CacheModel, EntryCapacityEvictsLru)
{
    CacheModel c(shape(100, 3), Rng(1));
    c.put(1, 1);
    c.put(2, 1);
    c.put(3, 1);
    c.get(1); // 1 is now MRU; 2 is LRU
    c.put(4, 1);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_FALSE(c.get(2).hit); // the LRU victim
    EXPECT_TRUE(c.get(1).hit);
    EXPECT_TRUE(c.get(3).hit);
    EXPECT_TRUE(c.get(4).hit);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(CacheModel, ByteCapacityEvictsUntilFit)
{
    CacheShape s = shape(100, 0);
    s.capacityBytes = 100;
    CacheModel c(s, Rng(1));
    c.put(1, 40);
    c.put(2, 40);
    c.put(3, 40); // 120 bytes: evicts key 1 (LRU)
    EXPECT_EQ(c.size(), 2u);
    EXPECT_LE(c.bytesUsed(), 100u);
    EXPECT_FALSE(c.get(1).hit);
}

TEST(CacheModel, SingleOversizedEntryStaysResident)
{
    CacheShape s = shape(100, 0);
    s.capacityBytes = 100;
    CacheModel c(s, Rng(1));
    c.put(1, 400); // over budget on its own: kept (memcached would
                   // refuse the SET; either way the cache must not
                   // evict itself empty)
    EXPECT_EQ(c.size(), 1u);
    EXPECT_TRUE(c.get(1).hit);
}

TEST(CacheModel, SlruScanResistance)
{
    // A working set that is re-referenced (promoted to the protected
    // segment) must survive a one-shot scan that would flush plain
    // LRU entirely.
    const std::uint64_t cap = 100;
    auto scanSurvivors = [&](EvictionPolicy policy) {
        CacheModel c(shape(100000, cap, policy), Rng(1));
        // Hot working set, touched twice so SLRU protects it.
        for (std::uint64_t k = 0; k < 50; ++k)
            c.put(k, 1);
        for (std::uint64_t k = 0; k < 50; ++k)
            c.get(k);
        // One-shot scan of cold keys, never re-referenced.
        for (std::uint64_t k = 1000; k < 1000 + 400; ++k)
            c.put(k, 1);
        int survivors = 0;
        for (std::uint64_t k = 0; k < 50; ++k) {
            if (c.get(k).hit)
                ++survivors;
        }
        return survivors;
    };
    EXPECT_EQ(scanSurvivors(EvictionPolicy::Lru), 0);
    EXPECT_EQ(scanSurvivors(EvictionPolicy::Slru), 50);
}

TEST(CacheModel, LfuKeepsFrequentKeysOverRecentOnes)
{
    CacheModel c(shape(100000, 50, EvictionPolicy::Lfu), Rng(1));
    // Hot half: hit many times to build frequency.
    for (int round = 0; round < 20; ++round) {
        for (std::uint64_t k = 0; k < 25; ++k) {
            if (!c.get(k).hit)
                c.put(k, 1);
        }
    }
    // Cold stream twice the capacity: sampled-LFU should victimise
    // mostly within the cold, low-frequency population.
    for (std::uint64_t k = 1000; k < 1100; ++k)
        c.put(k, 1);
    int survivors = 0;
    for (std::uint64_t k = 0; k < 25; ++k) {
        if (c.get(k).hit)
            ++survivors;
    }
    EXPECT_GE(survivors, 20);
}

TEST(CacheModel, EvictionIsDeterministicPerPolicy)
{
    // Identical shapes, seeds and traffic must leave bit-identical
    // caches — the property the parallel study grids lean on. The
    // randomised policies (LFU samples, Random victims) draw only
    // from the cache-private rng passed in.
    for (EvictionPolicy policy :
         {EvictionPolicy::Lru, EvictionPolicy::Slru, EvictionPolicy::Lfu,
          EvictionPolicy::Random}) {
        CacheModel a(shape(10000, 64, policy), Rng(99));
        CacheModel b(shape(10000, 64, policy), Rng(99));
        const ZipfSampler zipf(10000, 0.99);
        Rng trafficA(5), trafficB(5);
        for (int i = 0; i < 5000; ++i) {
            const std::uint64_t ka = zipf(trafficA);
            const std::uint64_t kb = zipf(trafficB);
            ASSERT_EQ(ka, kb);
            const CacheModel::Result ra = a.get(ka);
            const CacheModel::Result rb = b.get(kb);
            ASSERT_EQ(ra.hit, rb.hit);
            if (!ra.hit) {
                a.put(ka, static_cast<std::uint32_t>(ka % 256 + 1));
                b.put(kb, static_cast<std::uint32_t>(kb % 256 + 1));
            }
        }
        EXPECT_EQ(a.hits(), b.hits()) << toString(policy);
        EXPECT_EQ(a.misses(), b.misses()) << toString(policy);
        EXPECT_EQ(a.evictions(), b.evictions()) << toString(policy);
        EXPECT_EQ(a.size(), b.size()) << toString(policy);
        EXPECT_EQ(a.bytesUsed(), b.bytesUsed()) << toString(policy);
    }
}

/**
 * Che approximation for LRU under the independent-reference model:
 * solve sum_i (1 - e^{-p_i T}) = C for the characteristic time T, then
 * hit rate = sum_i p_i (1 - e^{-p_i T}).
 */
double
cheHitRate(const ZipfSampler &zipf, std::uint64_t n, double capacity)
{
    std::vector<double> p(n);
    for (std::uint64_t k = 0; k < n; ++k)
        p[k] = zipf.pmf(k);
    double lo = 0, hi = 1e12;
    for (int iter = 0; iter < 200; ++iter) {
        const double t = 0.5 * (lo + hi);
        double filled = 0;
        for (double pi : p)
            filled += 1.0 - std::exp(-pi * t);
        (filled < capacity ? lo : hi) = t;
    }
    const double t = 0.5 * (lo + hi);
    double hit = 0;
    for (double pi : p)
        hit += pi * (1.0 - std::exp(-pi * t));
    return hit;
}

TEST(CacheModel, LruHitRateMatchesCheApproximation)
{
    const std::uint64_t n = 10000;
    const std::uint64_t cap = 1000;
    const ZipfSampler zipf(n, 0.99);
    CacheModel c(shape(n, cap), Rng(1));
    Rng traffic(17);
    // Warm until full, then measure steady state.
    while (c.size() < cap) {
        const std::uint64_t k = zipf(traffic);
        if (!c.get(k).hit)
            c.put(k, 1);
    }
    c.resetCounters();
    const int draws = 200000;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t k = zipf(traffic);
        if (!c.get(k).hit)
            c.put(k, 1);
    }
    const double measured =
        static_cast<double>(c.hits()) /
        static_cast<double>(c.hits() + c.misses());
    const double che = cheHitRate(zipf, n, static_cast<double>(cap));
    EXPECT_NEAR(measured, che, 0.04);
}

TEST(CacheModel, ResetCountersZeroesOnlyCounters)
{
    CacheModel c(shape(100, 10), Rng(1));
    c.put(1, 64);
    c.get(1);
    c.get(2);
    c.resetCounters();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.bytesUsed(), 64u);
}

} // namespace
} // namespace svc
} // namespace tpv
