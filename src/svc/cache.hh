/**
 * @file
 * Finite-capacity cache model for the memcached tier: per-shard
 * key -> value-size stores with an eviction-policy axis. The model
 * tracks *which* keys are resident and how big their values are — the
 * data path (service work, wire bytes, miss cascades to the backing
 * store) reads it, but the cache itself costs no simulated time; the
 * work models charge for what it says.
 *
 * Everything here is deterministic: LRU and SLRU consume no
 * randomness at all, and the sampled-LFU / random policies draw from
 * a cache-private Rng forked from the service graph at construction,
 * so swept grids stay bit-identical at any study parallelism.
 */

#ifndef TPV_SVC_CACHE_HH
#define TPV_SVC_CACHE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/random.hh"

namespace tpv {
namespace svc {

/** How a full cache picks its victim. */
enum class EvictionPolicy : std::uint8_t
{
    /** Least-recently-used (memcached's stock policy). */
    Lru,
    /**
     * Segmented LRU: new keys enter a probation segment and are only
     * promoted to the protected segment on a re-reference, so a scan
     * of one-hit keys cannot flush the working set.
     */
    Slru,
    /**
     * Sampled LFU (the Redis approach): evict the least-frequently
     * used of a small random sample, with saturating 8-bit counters.
     */
    Lfu,
    /** Uniform-random victim — the control arm of policy sweeps. */
    Random,
};

/** @return policy tag ("lru", "slru", "lfu", "rand"). */
const char *toString(EvictionPolicy p);

/**
 * The sweepable cache axis of the memcached tier. Every knob
 * defaults off (keys == 0): the tier keeps its historical
 * every-GET-costs-the-same behaviour and golden fingerprints are
 * byte-identical. Enabling it keys the workload (Zipf popularity),
 * bounds each shard's cache, and routes misses to the backing store.
 */
struct CacheShape
{
    /** Keyspace size; 0 disables cache modelling entirely. */
    std::uint64_t keys = 0;
    /** Zipf skew of key popularity (<= 0 = uniform). */
    double skew = 0.99;
    /** Per-shard capacity in entries (0 = unbounded). */
    std::uint64_t capacityEntries = 0;
    /** Per-shard capacity in stored value bytes (0 = unbounded). */
    std::uint64_t capacityBytes = 0;
    /** Victim selection when full. */
    EvictionPolicy eviction = EvictionPolicy::Lru;
    /**
     * Start the run with empty caches (the cold-cache flash crowd)
     * instead of prewarmed with the hottest keys.
     */
    bool coldStart = false;

    bool enabled() const { return keys > 0; }

    /**
     * "z0.99k64Kc4K-lru" style study tag ("-cold" appended for cold
     * starts, "cINF" for uncapped); empty when disabled, so labels of
     * cache-free cells are unchanged.
     */
    std::string label() const;
};

/**
 * One shard's cache on one replica: a key -> value-bytes map bounded
 * by entries and/or bytes, with pluggable victim selection. get()
 * and put() update recency/frequency state and count hits, misses,
 * fills and evictions; the caller turns those into simulated work
 * and ServiceStats.
 */
class CacheModel
{
  public:
    struct Result
    {
        bool hit = false;
        /** Stored value size on a hit; 0 on a miss. */
        std::uint32_t valueBytes = 0;
    };

    CacheModel() = default;

    /**
     * @param shape capacity/eviction knobs (shape.enabled() must
     *        hold); @param rng cache-private stream (sampled-LFU and
     *        random eviction draw from it; LRU/SLRU never do).
     */
    CacheModel(const CacheShape &shape, Rng rng);

    /** Lookup @p key (touches recency/frequency on a hit). */
    Result get(std::uint64_t key);

    /**
     * Insert or overwrite @p key (a miss fill or a SET), evicting
     * until both capacity bounds hold. @return victims evicted.
     */
    std::uint64_t put(std::uint64_t key, std::uint32_t valueBytes);

    /** Resident entries. */
    std::size_t size() const { return index_.size(); }
    /** Stored value bytes. */
    std::uint64_t bytesUsed() const { return bytesUsed_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Zero the hit/miss/eviction counters (after a prewarm fill,
     *  so studies only count steady-state traffic). */
    void resetCounters() { hits_ = misses_ = evictions_ = 0; }

    /**
     * Drop every resident entry — the fault::FaultKind::CacheFlush
     * action (restart-without-state, accidental invalidation). The
     * hit/miss/eviction counters survive (flushed keys are not
     * evictions; the refill misses that follow are the fault's
     * signature), as does the eviction rng stream.
     */
    void flush();

    /**
     * Observe capacity events: called with false per eviction, true
     * per flush — the flight recorder's cache_evict markers. Null by
     * default (one branch per eviction, nothing on the hit path);
     * install from run setup.
     */
    using Observer = std::function<void(bool flushed)>;

    void setObserver(Observer obs) { observer_ = std::move(obs); }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint32_t valueBytes = 0;
        /** Saturating LFU counter. */
        std::uint8_t freq = 0;
        /** SLRU: resident in the protected segment. */
        bool isProtected = false;
        /** Slot holds a resident entry (false = on the free list). */
        bool used = false;
        /** Intrusive LRU list links (slot indices; -1 = none). */
        std::int32_t prev = -1;
        std::int32_t next = -1;
    };

    bool overCapacity() const;
    void evictOne();
    /** Unlink slot @p i from its LRU list. */
    void unlink(std::int32_t i);
    /** Push slot @p i to the MRU end of its segment's list. */
    void pushMru(std::int32_t i);
    /** LRU-tail victim slot of the resident population. */
    std::int32_t lruVictim();
    void touch(std::int32_t i);
    void removeSlot(std::int32_t i);

    CacheShape shape_{};
    Rng rng_{0};
    std::vector<Entry> slots_;
    std::vector<std::int32_t> freeSlots_;
    std::unordered_map<std::uint64_t, std::int32_t> index_;
    /** List heads/tails: [0] probation (and plain LRU), [1] protected. */
    std::int32_t head_[2] = {-1, -1};
    std::int32_t tail_[2] = {-1, -1};
    std::size_t segSize_[2] = {0, 0};
    std::uint64_t bytesUsed_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    Observer observer_;
};

} // namespace svc
} // namespace tpv

#endif // TPV_SVC_CACHE_HH
