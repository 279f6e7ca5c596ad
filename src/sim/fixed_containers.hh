/**
 * @file
 * Allocation-free-in-steady-state containers for the simulator hot
 * path: a growable FIFO ring and an index-addressed slot pool.
 *
 * Both grow to their high-water mark once and then recycle storage,
 * so the per-event cost is a few stores — no allocator traffic. The
 * slot pool is what lets scheduling callsites capture a 4-byte index
 * instead of a 64-byte payload (see net::Link's in-flight messages
 * and hw::HwThread's pending sleeps), keeping captures inside
 * InplaceCallback's inline budget.
 */

#ifndef TPV_SIM_FIXED_CONTAINERS_HH
#define TPV_SIM_FIXED_CONTAINERS_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace tpv {

/**
 * FIFO queue on a circular buffer. Unlike std::deque (which cycles
 * ~512-byte block allocations as elements flow through), the ring
 * reaches its high-water capacity once and never touches the
 * allocator again. T must be default-constructible and movable.
 */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** Allocated slots (diagnostics; high-water mark). */
    std::size_t capacity() const { return buf_.size(); }

    /**
     * Pre-size the ring to hold at least @p n elements, so a queue
     * whose depth stays under @p n never touches the allocator after
     * construction — growth mid-run is what turns a rare burst into
     * a heap allocation on the hot path (see bench/hotpath's
     * steady-state gate). Construction-time only: the ring must
     * still be empty.
     */
    void
    reserve(std::size_t n)
    {
        TPV_ASSERT(count_ == 0, "reserve() on a non-empty ring");
        std::size_t cap = buf_.empty() ? 8 : buf_.size();
        while (cap < n)
            cap *= 2;
        if (cap == buf_.size())
            return;
        buf_ = std::vector<T>(cap);
        mask_ = cap - 1;
        head_ = 0;
    }

    void
    push_back(T value)
    {
        if (count_ == buf_.size())
            grow();
        buf_[(head_ + count_) & mask_] = std::move(value);
        ++count_;
    }

    /**
     * Append a slot and return it for the caller to fill in place, so
     * a large element is written once instead of built and moved in.
     * The slot holds whatever its last occupant left (a moved-from or
     * reset element, or a default-constructed one): the caller must
     * assign every field it will read.
     */
    T &
    emplace_back()
    {
        if (count_ == buf_.size())
            grow();
        T &slot = buf_[(head_ + count_) & mask_];
        ++count_;
        return slot;
    }

    /** @pre !empty() */
    T &
    front()
    {
        TPV_ASSERT(count_ > 0, "front() on an empty ring");
        return buf_[head_];
    }

    /** Remove and return the oldest element. @pre !empty() */
    T
    pop_front()
    {
        TPV_ASSERT(count_ > 0, "pop_front() on an empty ring");
        T out = std::move(buf_[head_]);
        head_ = (head_ + 1) & mask_;
        --count_;
        return out;
    }

    /** Drop all elements; keeps the allocated capacity. */
    void
    clear()
    {
        while (count_ > 0)
            (void)pop_front();
        head_ = 0;
    }

  private:
    void
    grow()
    {
        // Capacity stays a power of two so the wraparound is a mask,
        // not a division.
        std::vector<T> bigger(buf_.empty() ? 8 : buf_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = std::move(buf_[(head_ + i) & mask_]);
        buf_ = std::move(bigger);
        mask_ = buf_.size() - 1;
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/**
 * Index-addressed object pool with a free list. acquire() parks a
 * value and returns a dense uint32 index; take() moves it back out
 * and recycles the slot. Slots grow to the in-flight high-water mark
 * and are reused forever after.
 */
template <typename T>
class SlotPool
{
  public:
    /** Park @p value; @return its slot index. */
    std::uint32_t
    acquire(T value)
    {
        std::uint32_t idx;
        if (!free_.empty()) {
            idx = free_.back();
            free_.pop_back();
            items_[idx] = std::move(value);
        } else {
            idx = static_cast<std::uint32_t>(items_.size());
            items_.push_back(std::move(value));
        }
        return idx;
    }

    /** Move the value out of @p idx and free the slot. */
    T
    take(std::uint32_t idx)
    {
        TPV_ASSERT(idx < items_.size(), "slot pool index out of range");
        T out = std::move(items_[idx]);
        items_[idx] = T();
        free_.push_back(idx);
        return out;
    }

    /** Borrow the parked value without freeing the slot. */
    T &
    at(std::uint32_t idx)
    {
        TPV_ASSERT(idx < items_.size(), "slot pool index out of range");
        return items_[idx];
    }

    /**
     * Claim a slot *without* assigning a value: the slot keeps
     * whatever a previous occupant left behind, so element-internal
     * buffers (vectors, strings) recycle their capacity instead of
     * being freed and re-grown per acquire. The caller must
     * re-initialise every field it reads. Pair with release().
     */
    std::uint32_t
    acquireSlot()
    {
        if (!free_.empty()) {
            const std::uint32_t idx = free_.back();
            free_.pop_back();
            return idx;
        }
        items_.emplace_back();
        return static_cast<std::uint32_t>(items_.size() - 1);
    }

    /**
     * Return a slot claimed with acquireSlot() to the free list. The
     * parked value is *not* destroyed — its buffers stay allocated
     * for the next occupant.
     */
    void
    release(std::uint32_t idx)
    {
        TPV_ASSERT(idx < items_.size(), "slot pool index out of range");
        free_.push_back(idx);
    }

    /**
     * Pre-allocate @p n slots so the pool only returns to the
     * allocator once in-flight work exceeds @p n. The free list is
     * stacked in *descending* index order, which makes the slot
     * acquisition sequence bit-identical to an unreserved pool's:
     * acquires pop 0, 1, 2, ... exactly where the unreserved pool
     * would have appended, and releases still recycle LIFO on top.
     * Construction-time only: the pool must still be untouched.
     * Reserved slots are default-constructed; callers that rely on
     * recycled element buffers (acquireSlot) may warm them via at().
     */
    void
    reserve(std::size_t n)
    {
        TPV_ASSERT(items_.empty() && free_.empty(),
                   "reserve() on a pool already in use");
        items_.resize(n);
        free_.reserve(n);
        for (std::size_t i = n; i-- > 0;)
            free_.push_back(static_cast<std::uint32_t>(i));
    }

    /** Slots currently parked. */
    std::size_t
    inUse() const
    {
        return items_.size() - free_.size();
    }

    /** Allocated slots (diagnostics; high-water mark). */
    std::size_t capacity() const { return items_.size(); }

  private:
    std::vector<T> items_;
    std::vector<std::uint32_t> free_;
};

} // namespace tpv

#endif // TPV_SIM_FIXED_CONTAINERS_HH
