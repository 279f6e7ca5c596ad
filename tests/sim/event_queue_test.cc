/** @file Unit tests for the cancellable event queue. */

#include "sim/event_queue.hh"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace tpv {
namespace {

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });

    EXPECT_EQ(q.nextTime(), 10);
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(42, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, RunNextReturnsFireTime)
{
    EventQueue q;
    q.schedule(55, [] {});
    EXPECT_EQ(q.runNext(), 55);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventHandle h = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.pending(h));
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.pending(h));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelAfterExecutionFails)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    q.runNext();
    EXPECT_FALSE(q.pending(h));
    EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, InvalidHandleIsNotPending)
{
    EventQueue q;
    EventHandle h;
    EXPECT_FALSE(h.valid());
    EXPECT_FALSE(q.pending(h));
    EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, StaleHandleAfterSlotReuse)
{
    EventQueue q;
    EventHandle h1 = q.schedule(10, [] {});
    q.runNext(); // slot freed
    EventHandle h2 = q.schedule(20, [] {});
    // Slot is recycled but the generation differs.
    EXPECT_EQ(h1.slot, h2.slot);
    EXPECT_NE(h1.gen, h2.gen);
    EXPECT_FALSE(q.pending(h1));
    EXPECT_TRUE(q.pending(h2));
}

TEST(EventQueue, CancelMiddleKeepsOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    EventHandle mid = q.schedule(20, [&] { order.push_back(2); });
    q.schedule(30, [&] { order.push_back(3); });
    q.cancel(mid);
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(15, [&] { order.push_back(2); });
    });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, ClearDropsEverything)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(i, [] {});
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyInterleavedScheduleCancel)
{
    EventQueue q;
    std::vector<EventHandle> handles;
    int fired = 0;
    for (int i = 0; i < 1000; ++i)
        handles.push_back(q.schedule(i, [&] { ++fired; }));
    // Cancel every other event.
    for (std::size_t i = 0; i < handles.size(); i += 2)
        EXPECT_TRUE(q.cancel(handles[i]));
    EXPECT_EQ(q.size(), 500u);
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(fired, 500);
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue q;
    EventHandle a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    q.runNext();
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, HeldRootKeepsFifoForSameTimeSchedules)
{
    // A's first schedule() takes over the fired entry's root; the
    // events it adds must still run in (time, insertion) order, after
    // the ones already queued for the same instant.
    EventQueue q;
    std::vector<std::string> order;
    auto log = [&order](const char *name) {
        return [&order, name] { order.emplace_back(name); };
    };
    q.schedule(10, [&] {
        order.emplace_back("A");
        q.schedule(10, log("D1"));
        q.schedule(20, log("D2"));
        q.schedule(10, log("D3"));
        q.schedule(20, log("D4"));
    });
    q.schedule(20, log("B"));
    q.schedule(20, log("C"));
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<std::string>{"A", "D1", "D3", "B", "C",
                                               "D2", "D4"}));
}

TEST(EventQueue, SizeInsideCallbackExcludesFiringEvent)
{
    EventQueue q;
    std::size_t seen = 99;
    bool wasEmpty = false;
    EventHandle self;
    bool selfPending = true;
    self = q.schedule(5, [&] {
        seen = q.size();
        wasEmpty = q.empty();
        selfPending = q.pending(self);
    });
    q.runNext();
    EXPECT_EQ(seen, 0u);
    EXPECT_TRUE(wasEmpty);
    EXPECT_FALSE(selfPending);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ThrowingCallbackLeavesQueueConsistent)
{
    EventQueue q;
    std::vector<int> order;
    for (int t : {10, 30, 50})
        q.schedule(t, [&order, t] { order.push_back(t); });
    // One callback throws before scheduling anything (its entry still
    // holds the root), the other after its schedule() took the root.
    q.schedule(20, [] { throw std::runtime_error("no schedule"); });
    q.schedule(40, [&] {
        q.schedule(45, [&order] { order.push_back(45); });
        throw std::runtime_error("after schedule");
    });
    int throws = 0;
    while (!q.empty()) {
        try {
            q.runNext();
        } catch (const std::runtime_error &) {
            ++throws;
        }
    }
    EXPECT_EQ(throws, 2);
    EXPECT_EQ(order, (std::vector<int>{10, 30, 45, 50}));
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.executed(), 6u);
    q.schedule(60, [&order] { order.push_back(60); });
    EXPECT_EQ(q.runNext(), 60);
    EXPECT_EQ(order.back(), 60);
}

TEST(EventQueue, RescheduleMakesOldHandleStale)
{
    EventQueue q;
    int fired = 0;
    EventHandle h = q.schedule(10, [&fired] { ++fired; });
    EventHandle moved = q.reschedule(h, 30);
    EXPECT_EQ(moved.slot, h.slot);
    EXPECT_NE(moved.gen, h.gen);
    EXPECT_FALSE(q.pending(h));
    EXPECT_TRUE(q.pending(moved));
    EXPECT_FALSE(q.cancel(h));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTime(), 30);
    EXPECT_EQ(q.runNext(), 30);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.pending(moved));
}

TEST(EventQueue, RescheduleOrdersLikeCancelPlusSchedule)
{
    // The moved event takes a fresh sequence number: it runs after
    // events already queued for its new time, in either direction.
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&order] { order.push_back(1); });
    EventHandle late = q.schedule(10, [&order] { order.push_back(2); });
    EventHandle early = q.schedule(50, [&order] { order.push_back(3); });
    q.schedule(20, [&order] { order.push_back(4); });
    q.reschedule(late, 30);
    q.reschedule(early, 20);
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{4, 3, 1, 2}));
}

} // namespace
} // namespace tpv
