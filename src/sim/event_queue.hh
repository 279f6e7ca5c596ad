/**
 * @file
 * Cancellable discrete-event queue.
 *
 * The queue is an indexed 4-ary min-heap ordered by (time, insertion
 * sequence), so events at the same instant execute in FIFO order —
 * this determinism is what makes runs exactly reproducible for a given
 * seed. The wider node fans out better to cache lines than a binary
 * heap (sift-down does one comparison burst per 64-byte-ish group
 * instead of chasing pairs), and because (time, seq) is a total order
 * the pop sequence is identical at any arity.
 *
 * Callbacks live inline in a slot table of InplaceCallback cells with
 * generation counters — scheduling allocates nothing once the tables
 * reach their high-water mark. A heap entry is 16 bytes, the time and
 * a tag packing the sequence number over the slot index, and a
 * position index maps each slot to its heap entry. That index makes
 * every pending event addressable:
 *
 * - cancel() removes the entry at once (the last entry fills the hole
 *   and sifts whichever way restores order), so the heap never holds
 *   dead entries and the slot is recycled immediately;
 * - reschedule() moves a pending event to a new time in place — the
 *   re-clocking a hardware thread does on every speed change — with
 *   exactly the ordering of a cancel followed by a fresh schedule.
 *
 * While a callback runs, the fired entry keeps the heap root (the
 * "hold" model): its key is below every other key, so no sift passes
 * it, and the callback's first schedule() overwrites it and sifts down
 * once instead of paying a pop plus a push. If the callback schedules
 * nothing, runNext() pops the root after it returns.
 *
 * Limits: at most 2^24 events pending at once and 2^40 schedules over
 * a queue's lifetime (the tag's slot and sequence fields); both are
 * asserted.
 */

#ifndef TPV_SIM_EVENT_QUEUE_HH
#define TPV_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/time.hh"

namespace tpv {

/**
 * Opaque handle to a scheduled event, usable to cancel it.
 * Default-constructed handles are invalid.
 */
struct EventHandle
{
    std::uint32_t slot = UINT32_MAX;
    std::uint32_t gen = 0;

    /** @return true if this handle ever referred to a scheduled event. */
    bool valid() const { return slot != UINT32_MAX; }

    bool operator==(const EventHandle &) const = default;
};

/**
 * A time-ordered queue of callbacks. Not thread-safe: a simulation is
 * a single logical timeline; cross-run parallelism is achieved by
 * running independent Simulator instances on separate threads.
 */
class EventQueue
{
  public:
    /**
     * Event callbacks store their captures inline (64-byte budget) in
     * the slot table — zero heap traffic per event. Captures that do
     * not fit fail to compile; see sim/inline_function.hh for the
     * shrinking discipline and the heapWrap() cold-path escape hatch.
     */
    using Callback = InplaceCallback<64>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at absolute time @p when. Taken by rvalue
     * reference so the callback relocates once, straight into its
     * slot.
     * @pre when >= 0 (the heap's packed key is unsigned).
     * @return a handle that can cancel the event before it fires.
     */
    EventHandle schedule(Time when, Callback &&cb);

    /**
     * Schedule callable @p f at @p when, built straight into its slot
     * (no temporary Callback to relocate). Orders exactly like the
     * Callback overload.
     */
    template <BuildsInPlace<Callback> F>
    EventHandle
    schedule(Time when, F &&f)
    {
        const std::uint32_t slot = acquireSlot();
        slots_[slot].cb.emplace(std::forward<F>(f));
        return enqueue(when, slot);
    }

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was still pending and is now cancelled.
     */
    bool cancel(EventHandle h);

    /**
     * Move a pending event to absolute time @p when, keeping its
     * callback. Orders exactly like cancel(h) followed by schedule()
     * of the same callback: the event takes the next sequence number,
     * so it runs after every event already queued for @p when.
     * @pre pending(h), when >= 0, and when is not before the time of
     *      a running event
     * @return the event's new handle; @p h goes stale.
     */
    EventHandle reschedule(EventHandle h, Time when);

    /** @return true if a handle refers to a still-pending event. */
    bool
    pending(EventHandle h) const
    {
        return h.slot < slots_.size() && slots_[h.slot].gen == h.gen &&
               pos_[h.slot] != kNotQueued;
    }

    /** @return true when no pending events remain. */
    bool empty() const { return heap_.size() == held_; }

    /** Number of pending (not cancelled, not yet executed) events. */
    std::size_t size() const { return heap_.size() - held_; }

    /**
     * Time of the earliest pending event.
     * @pre !empty(), and not called from inside an event callback
     */
    Time nextTime() const;

    /**
     * Pop and run the earliest pending event.
     * @return the time the event fired at.
     * @pre !empty(), and not called from inside an event callback
     */
    Time runNext();

    /**
     * Drop every pending event and release the heap, slot table and
     * free list storage, so a long sweep tearing runs down does not
     * keep high-water-mark callback storage alive across cells.
     */
    void clear();

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /** Slot-table cells allocated (capacity diagnostics for tests). */
    std::size_t slotCapacity() const { return slots_.capacity(); }

  private:
    /** Low tag bits: the slot index. */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
    /** High tag bits: the insertion sequence number. */
    static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);
    /** pos_ value of a slot with no heap entry. */
    static constexpr std::uint32_t kNotQueued = UINT32_MAX;
    /** Heap arity; 4 children per node pack sift-downs cache-tightly. */
    static constexpr std::size_t kArity = 4;
    /** Table capacity reserved on first use. */
    static constexpr std::size_t kInitialCapacity = 256;

    struct Entry
    {
        std::uint64_t when;
        /** seq << kSlotBits | slot */
        std::uint64_t tag;

        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(tag & kSlotMask);
        }

        /**
         * (when, seq) packed into one 128-bit key, so the heap's
         * hottest operation — ordering two entries — is a single
         * branchless wide compare instead of a data-dependent branch
         * pair. Simulated time is non-negative (schedule() asserts
         * it), so the unsigned reinterpretation preserves order. The
         * slot below seq never decides: sequence numbers are unique.
         */
        unsigned __int128
        key() const
        {
            return (static_cast<unsigned __int128>(when) << 64) | tag;
        }
    };

    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 0;
    };

    /** Take a free slot, growing the tables if none is free. The
     *  recycled case, every schedule in steady state, is inline. */
    std::uint32_t
    acquireSlot()
    {
        if (freeSlots_.empty())
            return growSlots();
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }

    /** Append a slot to the tables. @pre no slot is free */
    std::uint32_t growSlots();

    /** Queue the filled @p slot at @p when. */
    EventHandle enqueue(Time when, std::uint32_t slot);

    /** A fresh entry for @p slot at @p when, taking the next seq. */
    Entry makeEntry(Time when, std::uint32_t slot);

    /** Store @p e at heap index @p i and record its position. */
    void
    place(std::size_t i, const Entry &e)
    {
        heap_[i] = e;
        pos_[e.slot()] = static_cast<std::uint32_t>(i);
    }

    /** Remove the root entry (the held or fired event). */
    void popRoot();

    /** Restore order around index @p i after its entry changed. */
    void resift(std::size_t i);

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    /** Heap index of each slot's entry, or kNotQueued. */
    std::vector<std::uint32_t> pos_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    /** 1 while a fired entry still occupies the root, else 0. */
    std::size_t held_ = 0;
    /** True while runNext() is inside a callback. */
    bool firing_ = false;
};

} // namespace tpv

#endif // TPV_SIM_EVENT_QUEUE_HH
