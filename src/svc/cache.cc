#include "svc/cache.hh"

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
    if (shape_.capacityEntries > 0)
        slots_.reserve(shape_.capacityEntries + 1);
}

bool
CacheModel::overCapacity() const
{
    if (shape_.capacityEntries > 0 &&
        index_.size() > shape_.capacityEntries)
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
    index_.erase(e.key);
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
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return {};
    }
    ++hits_;
    touch(it->second);
    return {true, slots_[static_cast<std::size_t>(it->second)].valueBytes};
}

std::uint64_t
CacheModel::put(std::uint64_t key, std::uint32_t valueBytes)
{
    const std::uint64_t before = evictions_;
    const auto it = index_.find(key);
    if (it != index_.end()) {
        Entry &e = slots_[static_cast<std::size_t>(it->second)];
        bytesUsed_ += valueBytes;
        bytesUsed_ -= e.valueBytes;
        e.valueBytes = valueBytes;
        touch(it->second); // an overwrite is a reference too
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
        e.isProtected = false; // new keys start in probation
        index_.emplace(key, i);
        bytesUsed_ += valueBytes;
        pushMru(i);
    }
    // Evict down to capacity; a single entry larger than the byte cap
    // is allowed to stay (evicting the key just stored would turn the
    // fill into a guaranteed re-miss loop).
    while (overCapacity() && index_.size() > 1)
        evictOne();
    return evictions_ - before;
}

} // namespace svc
} // namespace tpv
