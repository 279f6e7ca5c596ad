#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace tpv {

std::uint32_t
EventQueue::acquireSlot()
{
    if (!freeSlots_.empty()) {
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }
    TPV_ASSERT(slots_.size() <= kSlotMask,
               "more than 2^24 events pending in one queue");
    if (slots_.capacity() == 0) {
        // The heap holds no dead entries to lend it headroom, so a
        // small queue would otherwise keep reallocating its tables
        // step by step long after a run reaches its steady state.
        heap_.reserve(kInitialCapacity);
        slots_.reserve(kInitialCapacity);
        pos_.reserve(kInitialCapacity);
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    pos_.push_back(kNotQueued);
    // The free list can never outgrow the slot table, so sizing it
    // alongside keeps cancel() and runNext() allocation-free: without
    // this its capacity high-water (max simultaneously free slots)
    // creeps up long after the slot count stops.
    freeSlots_.reserve(slots_.capacity());
    return slot;
}

EventQueue::Entry
EventQueue::makeEntry(Time when, std::uint32_t slot)
{
    // Entry::key() reinterprets the time as unsigned for the
    // branchless heap compare; negative times would silently sort
    // last instead of first, so reject them at the door.
    TPV_ASSERT(when >= 0, "scheduling at negative time ", when);
    TPV_ASSERT(nextSeq_ < kMaxSeq,
               "more than 2^40 events scheduled on one queue");
    return Entry{static_cast<std::uint64_t>(when),
                 nextSeq_++ << kSlotBits | slot};
}

EventHandle
EventQueue::schedule(Time when, Callback cb)
{
    TPV_ASSERT(cb != nullptr, "scheduling a null callback");
    const std::uint32_t slot = acquireSlot();
    Slot &s = slots_[slot];
    s.cb = std::move(cb);
    ++s.gen;

    const Entry e = makeEntry(when, slot);
    if (held_) {
        // Hold model: the fired event's entry still sits at the root
        // and is smaller than everything else, so overwrite it and
        // sift down once instead of popping it and pushing e.
        held_ = 0;
        place(0, e);
        siftDown(0);
    } else {
        heap_.push_back(e);
        siftUp(heap_.size() - 1);
    }
    return EventHandle{slot, s.gen};
}

bool
EventQueue::cancel(EventHandle h)
{
    if (!pending(h))
        return false;
    const std::size_t i = pos_[h.slot];
    pos_[h.slot] = kNotQueued;
    slots_[h.slot].cb = nullptr;
    freeSlots_.push_back(h.slot);

    const Entry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
        place(i, last);
        resift(i);
    }
    return true;
}

EventHandle
EventQueue::reschedule(EventHandle h, Time when)
{
    TPV_ASSERT(pending(h), "rescheduling an event that is not pending");
    // A held root must stay the minimum, or popping it would pop the
    // wrong entry.
    TPV_ASSERT(!held_ || static_cast<std::uint64_t>(when) >= heap_[0].when,
               "rescheduling before the running event's time");
    Slot &s = slots_[h.slot];
    ++s.gen;
    const std::size_t i = pos_[h.slot];
    place(i, makeEntry(when, h.slot));
    resift(i);
    return EventHandle{h.slot, s.gen};
}

Time
EventQueue::nextTime() const
{
    TPV_ASSERT(!firing_, "nextTime() called from inside an event");
    TPV_ASSERT(!heap_.empty(), "nextTime() on an empty event queue");
    return static_cast<Time>(heap_.front().when);
}

Time
EventQueue::runNext()
{
    TPV_ASSERT(!firing_, "runNext() called from inside an event");
    TPV_ASSERT(!heap_.empty(), "runNext() on an empty event queue");

    const Entry top = heap_.front();
    const std::uint32_t slot = top.slot();
    // Move the callback out before invoking: the slot is recycled
    // first, so the callback may freely schedule into it.
    Callback cb = std::move(slots_[slot].cb);
    pos_[slot] = kNotQueued;
    freeSlots_.push_back(slot);
    ++executed_;

    // The entry stays at the root while the callback runs; settle it
    // however the callback leaves — normally or by throwing — so the
    // queue stays consistent.
    struct Release
    {
        EventQueue &q;
        ~Release()
        {
            q.firing_ = false;
            if (q.held_) {
                q.held_ = 0;
                q.popRoot();
            }
        }
    };
    held_ = 1;
    firing_ = true;
    const Release release{*this};
    cb();
    return static_cast<Time>(top.when);
}

void
EventQueue::clear()
{
    heap_ = std::vector<Entry>();
    slots_ = std::vector<Slot>();
    pos_ = std::vector<std::uint32_t>();
    freeSlots_ = std::vector<std::uint32_t>();
    held_ = 0;
}

void
EventQueue::popRoot()
{
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        place(0, last);
        siftDown(0);
    }
}

void
EventQueue::resift(std::size_t i)
{
    if (i > 0 && heap_[(i - 1) / kArity].key() > heap_[i].key())
        siftUp(i);
    else
        siftDown(i);
}

void
EventQueue::siftUp(std::size_t i)
{
    // Hole insertion: carry the moving entry in a register and shift
    // parents down, instead of swapping at every level.
    const Entry e = heap_[i];
    const auto ekey = e.key();
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!(heap_[parent].key() > ekey))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, e);
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    const Entry e = heap_[i];
    const auto ekey = e.key();
    while (true) {
        const std::size_t first = kArity * i + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kArity, n);
        // Branchless min-of-children scan: heap comparisons are
        // coin-flips to the branch predictor, so select with wide
        // compares + conditional moves instead.
        std::size_t smallest = first;
        auto skey = heap_[first].key();
        for (std::size_t c = first + 1; c < last; ++c) {
            const auto ckey = heap_[c].key();
            const bool less = ckey < skey;
            smallest = less ? c : smallest;
            skey = less ? ckey : skey;
        }
        if (ekey <= skey)
            break;
        place(i, heap_[smallest]);
        i = smallest;
    }
    place(i, e);
}

} // namespace tpv
