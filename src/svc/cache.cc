#include "svc/cache.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "sim/logging.hh"

namespace tpv {
namespace svc {

namespace {

/** "4096" -> "4K"/"2M" study-label shorthand for round counts,
 *  binary (cache capacities are powers of two) or decimal. */
std::string
fmtCount(std::uint64_t n)
{
    if (n != 0 && n % (1u << 20) == 0)
        return std::to_string(n >> 20) + "M";
    if (n != 0 && n % 1024 == 0)
        return std::to_string(n >> 10) + "K";
    if (n != 0 && n % 1000000 == 0)
        return std::to_string(n / 1000000) + "M";
    if (n != 0 && n % 1000 == 0)
        return std::to_string(n / 1000) + "K";
    return std::to_string(n);
}

/** Sampled-LFU / random eviction sample width (the Redis default). */
constexpr int kSampleWidth = 5;

/** Smallest key index (buckets). */
constexpr std::size_t kMinBuckets = 16;

/**
 * Largest entry count the constructor reserves for; a bigger bound
 * (legal, but far past any studied shape) grows on demand instead of
 * reserving gigabytes up front.
 */
constexpr std::uint64_t kMaxPresizedEntries = std::uint64_t{1} << 20;

} // namespace

const char *
toString(EvictionPolicy p)
{
    switch (p) {
      case EvictionPolicy::Lru:
        return "lru";
      case EvictionPolicy::Slru:
        return "slru";
      case EvictionPolicy::Lfu:
        return "lfu";
      case EvictionPolicy::Random:
        return "rand";
    }
    return "?";
}

void
CacheShape::validate() const
{
    if (!std::isfinite(skew))
        fatal("CacheShape::skew must be finite, got ", skew);
    if (keys > (std::uint64_t{1} << 32)) {
        fatal("CacheShape::keys must be <= 2^32 (ranks travel in the "
              "32-bit Message::key), got ",
              keys);
    }
    if (capacityEntries >
        static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max())) {
        fatal("CacheShape::capacityEntries must be <= 2^31 - 1 (slots "
              "are int32_t indices), got ",
              capacityEntries);
    }
}

std::string
CacheShape::label() const
{
    if (!enabled())
        return {};
    char skewBuf[32];
    std::snprintf(skewBuf, sizeof(skewBuf), "%g", skew);
    std::string out = "z";
    out += skewBuf;
    out += 'k';
    out += fmtCount(keys);
    if (capacityEntries > 0) {
        out += 'c';
        out += fmtCount(capacityEntries);
    }
    if (capacityBytes > 0) {
        out += 'b';
        out += fmtCount(capacityBytes);
    }
    if (capacityEntries == 0 && capacityBytes == 0)
        out += "cINF";
    out += '-';
    out += toString(eviction);
    if (coldStart)
        out += "-cold";
    return out;
}

CacheModel::CacheModel(const CacheShape &shape, Rng rng)
    : shape_(shape), rng_(rng)
{
    TPV_ASSERT(shape.enabled(), "cache model built from a disabled shape");
    // A put inserts before it evicts, so an entry-bounded cache holds
    // capacity + 1 entries for a moment; no more than the keyspace
    // can ever be resident. Reserve the slots, the free list and the
    // index for that many: an entry-bounded cache then never
    // allocates again, and an unbounded one grows its index by
    // doubling.
    std::uint64_t entries = 0;
    if (shape_.capacityEntries > 0) {
        entries = std::min({shape_.capacityEntries + 1, shape_.keys,
                            kMaxPresizedEntries});
        slots_.reserve(static_cast<std::size_t>(entries));
        freeSlots_.reserve(static_cast<std::size_t>(entries));
    }
    rebuildIndex(std::max(kMinBuckets,
                          std::bit_ceil(static_cast<std::size_t>(2 * entries))));
}

std::size_t
CacheModel::findBucket(std::uint64_t key) const
{
    std::size_t b = bucketOf(key);
    for (;;) {
        const std::int32_t i = index_[b];
        if (i < 0 || slots_[static_cast<std::size_t>(i)].key == key)
            return b;
        b = (b + 1) & indexMask_;
    }
}

void
CacheModel::rebuildIndex(std::size_t buckets)
{
    index_.assign(buckets, -1);
    indexMask_ = buckets - 1;
    hashShift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].used)
            index_[findBucket(slots_[i].key)] = static_cast<std::int32_t>(i);
    }
}

void
CacheModel::eraseBucket(std::size_t b)
{
    // Backward shift: walk the probe chain after the hole and move
    // back every entry whose home bucket does not lie strictly
    // between the hole and its current bucket, so lookups never need
    // tombstones.
    std::size_t hole = b;
    for (std::size_t j = (b + 1) & indexMask_; index_[j] >= 0;
         j = (j + 1) & indexMask_) {
        const std::size_t home =
            bucketOf(slots_[static_cast<std::size_t>(index_[j])].key);
        if (((j - home) & indexMask_) >= ((j - hole) & indexMask_)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole] = -1;
}

bool
CacheModel::overCapacity() const
{
    if (shape_.capacityEntries > 0 && count_ > shape_.capacityEntries)
        return true;
    return shape_.capacityBytes > 0 && bytesUsed_ > shape_.capacityBytes;
}

void
CacheModel::unlink(std::int32_t i)
{
    Entry &e = slots_[static_cast<std::size_t>(i)];
    const int seg = e.isProtected ? 1 : 0;
    if (e.prev >= 0)
        slots_[static_cast<std::size_t>(e.prev)].next = e.next;
    else
        head_[seg] = e.next;
    if (e.next >= 0)
        slots_[static_cast<std::size_t>(e.next)].prev = e.prev;
    else
        tail_[seg] = e.prev;
    e.prev = e.next = -1;
    --segSize_[seg];
}

void
CacheModel::pushMru(std::int32_t i)
{
    Entry &e = slots_[static_cast<std::size_t>(i)];
    const int seg = e.isProtected ? 1 : 0;
    e.prev = -1;
    e.next = head_[seg];
    if (head_[seg] >= 0)
        slots_[static_cast<std::size_t>(head_[seg])].prev = i;
    head_[seg] = i;
    if (tail_[seg] < 0)
        tail_[seg] = i;
    ++segSize_[seg];
}

std::int32_t
CacheModel::lruVictim()
{
    // Probation (and the whole population under plain LRU) first; the
    // protected segment only gives up entries when probation is empty.
    return tail_[0] >= 0 ? tail_[0] : tail_[1];
}

void
CacheModel::touch(std::int32_t i)
{
    Entry &e = slots_[static_cast<std::size_t>(i)];
    if (e.freq < std::numeric_limits<std::uint8_t>::max())
        ++e.freq;
    switch (shape_.eviction) {
      case EvictionPolicy::Lru:
        unlink(i);
        pushMru(i);
        break;
      case EvictionPolicy::Slru: {
        unlink(i);
        e.isProtected = true;
        pushMru(i);
        // Protected segment holds at most 4/5 of the entry capacity;
        // overflow demotes its LRU end back to probation, where the
        // next eviction can take it.
        const std::size_t cap =
            shape_.capacityEntries > 0
                ? std::max<std::size_t>(1, shape_.capacityEntries * 4 / 5)
                : std::numeric_limits<std::size_t>::max();
        while (segSize_[1] > cap) {
            const std::int32_t demote = tail_[1];
            unlink(demote);
            slots_[static_cast<std::size_t>(demote)].isProtected = false;
            pushMru(demote);
        }
        break;
      }
      case EvictionPolicy::Lfu:
      case EvictionPolicy::Random:
        break; // no recency structure to maintain
    }
}

void
CacheModel::removeSlot(std::int32_t i)
{
    Entry &e = slots_[static_cast<std::size_t>(i)];
    unlink(i);
    bytesUsed_ -= e.valueBytes;
    eraseBucket(findBucket(e.key));
    --count_;
    e = Entry{};
    freeSlots_.push_back(i);
}

void
CacheModel::evictOne()
{
    std::int32_t victim = -1;
    switch (shape_.eviction) {
      case EvictionPolicy::Lru:
      case EvictionPolicy::Slru:
        victim = lruVictim();
        break;
      case EvictionPolicy::Lfu:
      case EvictionPolicy::Random: {
        // Victim by sampling occupied slots. Eviction only runs on a
        // full cache, so nearly every slot is occupied and the
        // attempt cap is never the common path.
        const auto nSlots = static_cast<std::int64_t>(slots_.size());
        int wanted = shape_.eviction == EvictionPolicy::Random
                         ? 1
                         : kSampleWidth;
        std::uint8_t bestFreq = std::numeric_limits<std::uint8_t>::max();
        for (int attempt = 0; attempt < 8 * kSampleWidth && wanted > 0;
             ++attempt) {
            const auto i =
                static_cast<std::int32_t>(rng_.uniformInt(0, nSlots - 1));
            const Entry &e = slots_[static_cast<std::size_t>(i)];
            if (!e.used)
                continue;
            --wanted;
            if (victim < 0 || e.freq < bestFreq) {
                victim = i;
                bestFreq = e.freq;
            }
        }
        if (victim < 0)
            victim = lruVictim(); // sampling found nothing occupied
        break;
      }
    }
    TPV_ASSERT(victim >= 0, "eviction from an empty cache");
    removeSlot(victim);
    ++evictions_;
    if (observer_)
        observer_();
}

CacheModel::Result
CacheModel::get(std::uint64_t key)
{
    const std::int32_t i = index_[findBucket(key)];
    if (i < 0) {
        ++misses_;
        return {};
    }
    ++hits_;
    touch(i);
    return {true, slots_[static_cast<std::size_t>(i)].valueBytes};
}

std::uint64_t
CacheModel::put(std::uint64_t key, std::uint32_t valueBytes)
{
    const std::uint64_t before = evictions_;
    std::size_t b = findBucket(key);
    if (index_[b] >= 0) {
        Entry &e = slots_[static_cast<std::size_t>(index_[b])];
        bytesUsed_ += valueBytes;
        bytesUsed_ -= e.valueBytes;
        e.valueBytes = valueBytes;
        touch(index_[b]); // an overwrite is a reference too
    } else {
        if (2 * (count_ + 1) > index_.size()) {
            rebuildIndex(2 * index_.size());
            b = findBucket(key);
        }
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
        e.isProtected = false; // new keys start in probation
        index_[b] = i;
        ++count_;
        bytesUsed_ += valueBytes;
        pushMru(i);
    }
    // Evict down to capacity; a single entry larger than the byte cap
    // is allowed to stay (evicting the key just stored would turn the
    // fill into a guaranteed re-miss loop).
    while (overCapacity() && count_ > 1)
        evictOne();
    return evictions_ - before;
}

} // namespace svc
} // namespace tpv
