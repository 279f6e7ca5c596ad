/** @file Tests for the finite-capacity cache model: bookkeeping,
 *  eviction policies, determinism, and the LRU hit rate against the
 *  Che approximation. */

#include "svc/cache.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "core/experiment.hh"
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

TEST(CacheShapeDeathTest, RejectsNonFiniteSkew)
{
    // A NaN or infinite skew would hang the Zipf sampler's first draw.
    const double inf = std::numeric_limits<double>::infinity();
    for (double skew : {std::nan(""), inf, -inf}) {
        CacheShape s = shape(1 << 10, 64);
        s.skew = skew;
        EXPECT_EXIT(s.validate(), ::testing::ExitedWithCode(1),
                    "CacheShape::skew");
        core::ExperimentConfig cfg =
            core::ExperimentConfig::forMemcached(1000);
        EXPECT_EXIT(core::applyCacheShape(cfg, s),
                    ::testing::ExitedWithCode(1), "CacheShape::skew");
    }
}

TEST(CacheShapeDeathTest, RejectsKeysAbove2To32)
{
    // Ranks travel in the 32-bit Message::key: 2^32 keys fit, one more
    // would wrap.
    CacheShape s = shape(std::uint64_t{1} << 32, 64);
    s.validate();
    s.keys += 1;
    EXPECT_EXIT(s.validate(), ::testing::ExitedWithCode(1),
                "CacheShape::keys");
    core::ExperimentConfig cfg = core::ExperimentConfig::forMemcached(1000);
    EXPECT_EXIT(core::applyCacheShape(cfg, s), ::testing::ExitedWithCode(1),
                "CacheShape::keys");
}

TEST(CacheShapeDeathTest, RejectsCapacityEntriesAbove2To31Minus1)
{
    // Slots are int32_t indices.
    CacheShape s = shape(1 << 10, std::numeric_limits<std::int32_t>::max());
    s.validate();
    s.capacityEntries += 1;
    EXPECT_EXIT(s.validate(), ::testing::ExitedWithCode(1),
                "CacheShape::capacityEntries");
    s.capacityEntries = std::uint64_t{1} << 40;
    core::ExperimentConfig cfg = core::ExperimentConfig::forMemcached(1000);
    EXPECT_EXIT(core::applyCacheShape(cfg, s), ::testing::ExitedWithCode(1),
                "CacheShape::capacityEntries");
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
 * The cache model as it was before the flat key index: the same slot
 * array, free list and eviction policies over a std::map key index,
 * kept as the reference the flat index must match op for op
 * (including which slots sampled-LFU / random eviction draw).
 */
class ReferenceCache
{
  public:
    ReferenceCache(const CacheShape &shape, Rng rng) : shape_(shape), rng_(rng)
    {
    }

    CacheModel::Result
    get(std::uint64_t key)
    {
        const auto it = index_.find(key);
        if (it == index_.end())
            return {};
        touch(it->second);
        return {true, slots_[static_cast<std::size_t>(it->second)].valueBytes};
    }

    std::uint64_t
    put(std::uint64_t key, std::uint32_t valueBytes)
    {
        const std::uint64_t before = evictions_;
        const auto it = index_.find(key);
        if (it != index_.end()) {
            Entry &e = slots_[static_cast<std::size_t>(it->second)];
            bytesUsed_ += valueBytes;
            bytesUsed_ -= e.valueBytes;
            e.valueBytes = valueBytes;
            touch(it->second);
        } else {
            std::int32_t i;
            if (!freeSlots_.empty()) {
                i = freeSlots_.back();
                freeSlots_.pop_back();
            } else {
                i = static_cast<std::int32_t>(slots_.size());
                slots_.push_back(Entry{});
            }
            Entry &e = slots_[static_cast<std::size_t>(i)];
            e.key = key;
            e.valueBytes = valueBytes;
            e.used = true;
            e.isProtected = false;
            index_.emplace(key, i);
            bytesUsed_ += valueBytes;
            pushMru(i);
        }
        while (overCapacity() && index_.size() > 1)
            evictOne();
        return evictions_ - before;
    }

    std::size_t size() const { return index_.size(); }
    std::uint64_t bytesUsed() const { return bytesUsed_; }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint32_t valueBytes = 0;
        std::uint8_t freq = 0;
        bool isProtected = false;
        bool used = false;
        std::int32_t prev = -1;
        std::int32_t next = -1;
    };

    Entry &at(std::int32_t i) { return slots_[static_cast<std::size_t>(i)]; }

    bool
    overCapacity() const
    {
        if (shape_.capacityEntries > 0 &&
            index_.size() > shape_.capacityEntries)
            return true;
        return shape_.capacityBytes > 0 && bytesUsed_ > shape_.capacityBytes;
    }

    void
    unlink(std::int32_t i)
    {
        Entry &e = at(i);
        const int seg = e.isProtected ? 1 : 0;
        if (e.prev >= 0)
            at(e.prev).next = e.next;
        else
            head_[seg] = e.next;
        if (e.next >= 0)
            at(e.next).prev = e.prev;
        else
            tail_[seg] = e.prev;
        e.prev = e.next = -1;
        --segSize_[seg];
    }

    void
    pushMru(std::int32_t i)
    {
        Entry &e = at(i);
        const int seg = e.isProtected ? 1 : 0;
        e.prev = -1;
        e.next = head_[seg];
        if (head_[seg] >= 0)
            at(head_[seg]).prev = i;
        head_[seg] = i;
        if (tail_[seg] < 0)
            tail_[seg] = i;
        ++segSize_[seg];
    }

    std::int32_t lruVictim() { return tail_[0] >= 0 ? tail_[0] : tail_[1]; }

    void
    touch(std::int32_t i)
    {
        Entry &e = at(i);
        if (e.freq < std::numeric_limits<std::uint8_t>::max())
            ++e.freq;
        if (shape_.eviction == EvictionPolicy::Lru) {
            unlink(i);
            pushMru(i);
        } else if (shape_.eviction == EvictionPolicy::Slru) {
            unlink(i);
            e.isProtected = true;
            pushMru(i);
            const std::size_t cap =
                shape_.capacityEntries > 0
                    ? std::max<std::size_t>(1, shape_.capacityEntries * 4 / 5)
                    : std::numeric_limits<std::size_t>::max();
            while (segSize_[1] > cap) {
                const std::int32_t demote = tail_[1];
                unlink(demote);
                at(demote).isProtected = false;
                pushMru(demote);
            }
        }
    }

    void
    evictOne()
    {
        std::int32_t victim = -1;
        if (shape_.eviction == EvictionPolicy::Lru ||
            shape_.eviction == EvictionPolicy::Slru) {
            victim = lruVictim();
        } else {
            const auto nSlots = static_cast<std::int64_t>(slots_.size());
            int wanted = shape_.eviction == EvictionPolicy::Random ? 1 : 5;
            std::uint8_t bestFreq = std::numeric_limits<std::uint8_t>::max();
            for (int attempt = 0; attempt < 8 * 5 && wanted > 0; ++attempt) {
                const auto i =
                    static_cast<std::int32_t>(rng_.uniformInt(0, nSlots - 1));
                const Entry &e = at(i);
                if (!e.used)
                    continue;
                --wanted;
                if (victim < 0 || e.freq < bestFreq) {
                    victim = i;
                    bestFreq = e.freq;
                }
            }
            if (victim < 0)
                victim = lruVictim();
        }
        Entry &e = at(victim);
        unlink(victim);
        bytesUsed_ -= e.valueBytes;
        index_.erase(e.key);
        e = Entry{};
        freeSlots_.push_back(victim);
        ++evictions_;
    }

    CacheShape shape_;
    Rng rng_;
    std::vector<Entry> slots_;
    std::vector<std::int32_t> freeSlots_;
    std::map<std::uint64_t, std::int32_t> index_;
    std::int32_t head_[2] = {-1, -1};
    std::int32_t tail_[2] = {-1, -1};
    std::size_t segSize_[2] = {0, 0};
    std::uint64_t bytesUsed_ = 0;
    std::uint64_t evictions_ = 0;
};

TEST(CacheModel, IndexMatchesMapReference)
{
    // Seeded get/put streams against the std::map reference, op by
    // op, under every policy with an entry cap, a byte cap and no
    // cap. Besides Zipf traffic over the keyspace, one stream churns
    // keys whose home is the last bucket of the smallest (16-bucket)
    // index, so probe chains wrap past the end and backward-shift
    // deletion has to move entries across it; another uses keys far
    // outside the keyspace, which an unbounded index must grow for.
    std::vector<std::uint64_t> wrapKeys;
    for (std::uint64_t k = 0; wrapKeys.size() < 12; ++k) {
        if ((k * 0x9e3779b97f4a7c15ULL) >> 60 >= 14)
            wrapKeys.push_back(k);
    }
    struct Cap
    {
        std::uint64_t entries;
        std::uint64_t bytes;
    };
    const Cap caps[] = {{5, 0}, {64, 0}, {0, 3000}, {0, 0}};
    int checked = 0;
    for (EvictionPolicy policy :
         {EvictionPolicy::Lru, EvictionPolicy::Slru, EvictionPolicy::Lfu,
          EvictionPolicy::Random}) {
        for (const Cap &cap : caps) {
            for (int stream = 0; stream < 3; ++stream) {
                CacheShape sh = shape(2000, cap.entries, policy);
                sh.capacityBytes = cap.bytes;
                CacheModel c(sh, Rng(41));
                ReferenceCache ref(sh, Rng(41));
                const ZipfSampler zipf(2000, 0.8);
                Rng traffic(static_cast<std::uint64_t>(stream) + 7);
                for (int op = 0; op < 6000; ++op) {
                    std::uint64_t key = 0;
                    if (stream == 0) {
                        key = zipf(traffic);
                    } else if (stream == 1) {
                        key = wrapKeys[static_cast<std::size_t>(
                            traffic.uniformInt(0, 11))];
                    } else {
                        const auto shift = traffic.uniformInt(0, 63);
                        key = traffic.u64() >> shift;
                    }
                    const auto bytes =
                        static_cast<std::uint32_t>(traffic.uniformInt(1, 400));
                    if (traffic.chance(0.5)) {
                        const CacheModel::Result got = c.get(key);
                        const CacheModel::Result want = ref.get(key);
                        ASSERT_EQ(got.hit, want.hit) << op;
                        ASSERT_EQ(got.valueBytes, want.valueBytes) << op;
                    } else {
                        ASSERT_EQ(c.put(key, bytes), ref.put(key, bytes))
                            << op;
                    }
                    ASSERT_EQ(c.size(), ref.size()) << op;
                    ASSERT_EQ(c.bytesUsed(), ref.bytesUsed()) << op;
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, 4 * 4 * 3 * 6000);
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
