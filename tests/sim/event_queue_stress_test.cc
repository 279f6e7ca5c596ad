/**
 * @file
 * Stress tests guarding the event queue's indexed d-ary heap and
 * inline callback slot table: randomized schedule/cancel/reschedule/
 * fire interleavings (also from inside firing callbacks) against a
 * reference model, FIFO tie-break order under fire-while-scheduling,
 * handle-generation safety across slot reuse, and cancel-heavy eager
 * removal.
 */

#include "sim/event_queue.hh"
#include "sim/random.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace tpv {
namespace {

/**
 * Reference model: a sorted multimap of (time, insertion-seq) -> id.
 * Unlike the one in event_queue_property_test, this model also pops,
 * so fires interleave with schedules, cancels and reschedules.
 */
struct RefModel
{
    std::multimap<std::pair<Time, std::uint64_t>, int> events;
    std::uint64_t seq = 0;

    std::pair<Time, std::uint64_t>
    add(Time when, int id)
    {
        auto key = std::make_pair(when, seq++);
        events.emplace(key, id);
        return key;
    }

    bool
    cancel(const std::pair<Time, std::uint64_t> &key)
    {
        auto it = events.find(key);
        if (it == events.end())
            return false;
        events.erase(it);
        return true;
    }

    int
    pop()
    {
        auto it = events.begin();
        const int id = it->second;
        events.erase(it);
        return id;
    }

    Time
    nextTime() const
    {
        return events.begin()->first.first;
    }
};

class EventQueueStress : public ::testing::TestWithParam<int>
{
};

/**
 * Randomized schedule/cancel/reschedule/fire driver that applies
 * every operation to the queue and the reference model in lockstep.
 * Firing callbacks issue operations too, so the held-root path (an
 * event's first schedule() taking the fired entry's root) and
 * cancels and reschedules around a held root are exercised.
 */
struct StressHarness
{
    struct Live
    {
        EventHandle handle;
        std::pair<Time, std::uint64_t> key;
        int id;
    };

    explicit StressHarness(std::uint64_t seed) : rng(seed) {}

    EventQueue q;
    RefModel ref;
    Rng rng;
    std::vector<int> fired;
    std::vector<int> refFired;
    std::vector<Live> live;
    std::vector<EventHandle> spent; // fired, cancelled or rescheduled
    Time clock = 0;
    int nextId = 0;

    std::size_t
    pick(std::size_t n)
    {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    }

    void
    schedule()
    {
        // Coarse times force plenty of (time, seq) ties so the FIFO
        // tie-break is genuinely exercised.
        const Time when = clock + rng.uniformInt(0, 40);
        const int id = nextId++;
        EventHandle h = q.schedule(when, [this, id] { onFire(id); });
        live.push_back(Live{h, ref.add(when, id), id});
    }

    void
    cancel()
    {
        // Sometimes cancel a handle already spent, which must fail on
        // both sides.
        if (live.empty() || (rng.uniform01() < 0.2 && !spent.empty())) {
            if (spent.empty())
                return;
            const EventHandle h = spent[pick(spent.size())];
            EXPECT_FALSE(q.cancel(h));
            EXPECT_FALSE(q.pending(h));
            return;
        }
        const std::size_t idx = pick(live.size());
        EXPECT_TRUE(q.cancel(live[idx].handle));
        EXPECT_TRUE(ref.cancel(live[idx].key));
        spent.push_back(live[idx].handle);
        live.erase(live.begin() + static_cast<long>(idx));
    }

    void
    reschedule()
    {
        // The reference treats it as cancel + add with a fresh seq.
        if (live.empty())
            return;
        Live &l = live[pick(live.size())];
        const Time when = clock + rng.uniformInt(0, 40);
        const EventHandle h = q.reschedule(l.handle, when);
        EXPECT_FALSE(q.pending(l.handle));
        EXPECT_TRUE(ref.cancel(l.key));
        spent.push_back(l.handle);
        l.handle = h;
        l.key = ref.add(when, l.id);
    }

    void
    onFire(int id)
    {
        fired.push_back(id);
        const auto it = std::find_if(
            live.begin(), live.end(),
            [id](const Live &l) { return l.id == id; });
        ASSERT_NE(it, live.end());
        // The fired event is no longer pending, and size()/empty()
        // count only the rest, even while its entry holds the root.
        EXPECT_FALSE(q.pending(it->handle));
        spent.push_back(it->handle);
        live.erase(it);
        EXPECT_EQ(q.size(), ref.events.size());
        EXPECT_EQ(q.empty(), ref.events.empty());
        const int nested = static_cast<int>(rng.uniformInt(0, 3));
        for (int i = 0; i < nested; ++i) {
            const double dice = rng.uniform01();
            if (dice < 0.45)
                schedule();
            else if (dice < 0.7)
                cancel();
            else
                reschedule();
            EXPECT_EQ(q.size(), ref.events.size());
            EXPECT_EQ(q.empty(), ref.events.empty());
        }
    }

    void
    fire()
    {
        const Time expect = ref.nextTime();
        ASSERT_GE(expect, clock);
        clock = expect;
        refFired.push_back(ref.pop());
        EXPECT_EQ(q.runNext(), expect);
    }
};

TEST_P(EventQueueStress, RandomScheduleCancelFireMatchesReference)
{
    StressHarness t(static_cast<std::uint64_t>(GetParam()) * 0x51ed + 3);

    for (int op = 0; op < 6000; ++op) {
        const double dice = t.rng.uniform01();
        if (t.live.empty() || dice < 0.45) {
            t.schedule();
        } else if (dice < 0.65) {
            t.cancel();
        } else if (dice < 0.8) {
            t.reschedule();
        } else {
            ASSERT_FALSE(t.q.empty());
            t.fire();
            ASSERT_EQ(t.fired, t.refFired);
        }
        ASSERT_EQ(t.q.size(), t.ref.events.size());
        // Generation safety: every live handle still pends, every
        // spent one does not — however the heap reshuffles slots.
        for (const StressHarness::Live &l : t.live)
            ASSERT_TRUE(t.q.pending(l.handle));
        for (const EventHandle &h : t.spent)
            ASSERT_FALSE(t.q.pending(h));
    }

    while (!t.q.empty())
        t.fire();
    EXPECT_TRUE(t.ref.events.empty());
    EXPECT_EQ(t.fired, t.refFired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueStress, ::testing::Range(1, 7));

TEST(EventQueueStress, FifoTieBreakSurvivesInterleavedFires)
{
    EventQueue q;
    std::vector<int> order;
    // Two waves at the same instant with fires in between: the second
    // wave must still run strictly after the first.
    for (int i = 0; i < 16; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    q.schedule(50, [&] {
        for (int i = 16; i < 32; ++i)
            q.schedule(100, [&order, i] { order.push_back(i); });
    });
    while (!q.empty())
        q.runNext();
    std::vector<int> expect(32);
    for (int i = 0; i < 32; ++i)
        expect[static_cast<std::size_t>(i)] = i;
    EXPECT_EQ(order, expect);
}

TEST(EventQueueStress, CancelHeavyCompactionKeepsOrderAndHandles)
{
    // Arm far more events than survive — the hedge-timer pattern,
    // where every cancel removes its entry from the heap at once —
    // and check order and handle safety.
    EventQueue q;
    std::vector<int> order;
    std::vector<EventHandle> cancelled;
    std::vector<EventHandle> kept;
    std::vector<int> keptIds;
    for (int i = 0; i < 4096; ++i) {
        EventHandle h =
            q.schedule(i / 4, [&order, i] { order.push_back(i); });
        if (i % 16 == 0) {
            kept.push_back(h);
            keptIds.push_back(i);
        } else {
            cancelled.push_back(h);
        }
    }
    for (const EventHandle &h : cancelled)
        ASSERT_TRUE(q.cancel(h));
    EXPECT_EQ(q.size(), kept.size());
    for (const EventHandle &h : kept)
        ASSERT_TRUE(q.pending(h));
    for (const EventHandle &h : cancelled)
        ASSERT_FALSE(q.pending(h));
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, keptIds);
}

TEST(EventQueueStress, CancelEverythingCompactsToEmpty)
{
    // Eager removal down to zero survivors: the last cancels empty
    // the heap outright, and the queue must stay usable afterwards.
    EventQueue q;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 500; ++i)
        handles.push_back(q.schedule(i, [] {}));
    for (const EventHandle &h : handles)
        ASSERT_TRUE(q.cancel(h));
    EXPECT_TRUE(q.empty());
    int hits = 0;
    q.schedule(3, [&hits] { ++hits; });
    EXPECT_EQ(q.runNext(), 3);
    EXPECT_EQ(hits, 1);
}

TEST(EventQueueStress, ClearReleasesSlotStorage)
{
    EventQueue q;
    for (int i = 0; i < 10000; ++i)
        q.schedule(i, [] {});
    EXPECT_GE(q.slotCapacity(), 10000u);
    q.clear();
    EXPECT_TRUE(q.empty());
    // The high-water-mark callback storage is gone, not just unused —
    // a sweep tearing down a big run must not pin it across cells.
    EXPECT_EQ(q.slotCapacity(), 0u);
    // And the queue is immediately reusable.
    int hits = 0;
    q.schedule(5, [&hits] { ++hits; });
    EXPECT_EQ(q.runNext(), 5);
    EXPECT_EQ(hits, 1);
}

TEST(EventQueueStress, ClearInvalidatesOldHandles)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    q.clear();
    EXPECT_FALSE(q.pending(h));
    EXPECT_FALSE(q.cancel(h));
}

} // namespace
} // namespace tpv
