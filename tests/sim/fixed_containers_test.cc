/** @file Unit tests for the hot-path RingQueue and SlotPool. */

#include "sim/fixed_containers.hh"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace tpv {
namespace {

TEST(RingQueue, FifoOrder)
{
    RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 100; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(q.pop_front(), i);
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapsAroundWithoutGrowing)
{
    RingQueue<int> q;
    for (int i = 0; i < 8; ++i)
        q.push_back(i);
    const std::size_t cap = q.capacity();
    // Push/pop cycles many times the capacity: the ring must wrap, and
    // the capacity must stay at its high-water mark (no allocator
    // traffic in steady state).
    int next = 8;
    for (int cycle = 0; cycle < 1000; ++cycle) {
        EXPECT_EQ(q.pop_front(), next - 8);
        q.push_back(next);
        ++next;
    }
    EXPECT_EQ(q.capacity(), cap);
    EXPECT_EQ(q.size(), 8u);
}

TEST(RingQueue, GrowPreservesOrderAcrossWrap)
{
    RingQueue<int> q;
    for (int i = 0; i < 8; ++i)
        q.push_back(i);
    // Rotate so head is mid-buffer, then force a grow.
    for (int i = 0; i < 5; ++i) {
        (void)q.pop_front();
        q.push_back(100 + i);
    }
    for (int i = 0; i < 20; ++i)
        q.push_back(200 + i);
    std::vector<int> out;
    while (!q.empty())
        out.push_back(q.pop_front());
    const std::vector<int> expect = {5,   6,   7,   100, 101, 102, 103,
                                     104, 200, 201, 202, 203, 204, 205,
                                     206, 207, 208, 209, 210, 211, 212,
                                     213, 214, 215, 216, 217, 218, 219};
    EXPECT_EQ(out, expect);
}

TEST(RingQueue, MoveOnlyElements)
{
    RingQueue<std::unique_ptr<int>> q;
    q.push_back(std::make_unique<int>(1));
    q.push_back(std::make_unique<int>(2));
    EXPECT_EQ(*q.front(), 1);
    EXPECT_EQ(*q.pop_front(), 1);
    EXPECT_EQ(*q.pop_front(), 2);
}

TEST(RingQueue, ClearKeepsCapacity)
{
    RingQueue<int> q;
    for (int i = 0; i < 30; ++i)
        q.push_back(i);
    const std::size_t cap = q.capacity();
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), cap);
    q.push_back(7);
    EXPECT_EQ(q.pop_front(), 7);
}

TEST(RingQueue, EmplaceBackKeepsFifoAcrossWrapAndGrowth)
{
    // emplace_back hands out the recycled slot, which still holds its
    // last occupant's moved-from value; the caller overwrites it.
    RingQueue<std::unique_ptr<int>> q;
    q.reserve(8);
    std::vector<int> out;
    int next = 0;
    // Fill in place, drain, wrap the ring, then outgrow it.
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 6; ++i)
            q.emplace_back() = std::make_unique<int>(next++);
        for (int i = 0; i < 5; ++i)
            out.push_back(*q.pop_front());
    }
    for (int i = 0; i < 20; ++i)
        q.emplace_back() = std::make_unique<int>(next++);
    while (!q.empty())
        out.push_back(*q.pop_front());
    std::vector<int> want(static_cast<std::size_t>(next));
    for (int i = 0; i < next; ++i)
        want[static_cast<std::size_t>(i)] = i;
    EXPECT_EQ(out, want);
}

TEST(SlotPool, AcquireTakeRoundTrip)
{
    SlotPool<std::string> pool;
    const std::uint32_t a = pool.acquire("alpha");
    const std::uint32_t b = pool.acquire("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.inUse(), 2u);
    EXPECT_EQ(pool.at(a), "alpha");
    EXPECT_EQ(pool.take(b), "beta");
    EXPECT_EQ(pool.inUse(), 1u);
    EXPECT_EQ(pool.take(a), "alpha");
    EXPECT_EQ(pool.inUse(), 0u);
}

TEST(SlotPool, RecyclesSlotsAtHighWaterMark)
{
    SlotPool<int> pool;
    const std::uint32_t a = pool.acquire(1);
    (void)pool.take(a);
    // One in flight at a time: capacity must stay at one slot however
    // many acquire/take cycles run.
    for (int i = 0; i < 1000; ++i) {
        const std::uint32_t idx = pool.acquire(i);
        EXPECT_EQ(pool.take(idx), i);
    }
    EXPECT_EQ(pool.capacity(), 1u);
}

TEST(SlotPool, MoveOnlyElements)
{
    SlotPool<std::unique_ptr<int>> pool;
    const std::uint32_t idx = pool.acquire(std::make_unique<int>(9));
    auto p = pool.take(idx);
    ASSERT_TRUE(p);
    EXPECT_EQ(*p, 9);
}

} // namespace
} // namespace tpv
