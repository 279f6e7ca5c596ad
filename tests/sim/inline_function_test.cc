/** @file Unit tests for InplaceFunction / InplaceCallback / heapWrap. */

#include "sim/inline_function.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "net/message.hh"
#include "sim/fixed_containers.hh"

namespace tpv {
namespace {

TEST(InplaceCallback, DefaultIsEmpty)
{
    InplaceCallback<64> cb;
    EXPECT_FALSE(static_cast<bool>(cb));
    EXPECT_TRUE(cb == nullptr);
}

TEST(InplaceCallback, NullptrConstructionAndAssignment)
{
    InplaceCallback<64> cb = nullptr;
    EXPECT_FALSE(static_cast<bool>(cb));
    int hits = 0;
    cb = [&hits] { ++hits; };
    EXPECT_TRUE(static_cast<bool>(cb));
    cb = nullptr;
    EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InplaceCallback, InvokesStoredTarget)
{
    int hits = 0;
    InplaceCallback<64> cb([&hits] { ++hits; });
    cb();
    cb();
    EXPECT_EQ(hits, 2);
}

TEST(InplaceCallback, CapturesStateByValue)
{
    int out = 0;
    int seed = 41;
    InplaceCallback<64> cb([seed, &out] { out = seed + 1; });
    seed = 0;
    cb();
    EXPECT_EQ(out, 42);
}

TEST(InplaceCallback, MoveTransfersTarget)
{
    int hits = 0;
    InplaceCallback<64> a([&hits] { ++hits; });
    InplaceCallback<64> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    InplaceCallback<64> c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(hits, 2);
}

TEST(InplaceCallback, MoveOnlyCapturesWork)
{
    auto p = std::make_unique<int>(7);
    int out = 0;
    InplaceCallback<64> cb([p = std::move(p), &out] { out = *p; });
    InplaceCallback<64> moved(std::move(cb));
    moved();
    EXPECT_EQ(out, 7);
}

TEST(InplaceCallback, DestructorRunsCaptureDtorsExactlyOnce)
{
    auto counter = std::make_shared<int>(0);
    EXPECT_EQ(counter.use_count(), 1);
    {
        InplaceCallback<64> cb([counter] { ++*counter; });
        EXPECT_EQ(counter.use_count(), 2);
        InplaceCallback<64> moved(std::move(cb));
        // The capture relocated; no extra copy survives in the source.
        EXPECT_EQ(counter.use_count(), 2);
    }
    EXPECT_EQ(counter.use_count(), 1);
    EXPECT_EQ(*counter, 0);
}

TEST(InplaceCallback, ResetDestroysTarget)
{
    auto counter = std::make_shared<int>(0);
    InplaceCallback<64> cb([counter] {});
    EXPECT_EQ(counter.use_count(), 2);
    cb.reset();
    EXPECT_EQ(counter.use_count(), 1);
    EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InplaceFunction, NonVoidReturn)
{
    InplaceFunction<int, 24> f([] { return 17; });
    EXPECT_EQ(f(), 17);
}

TEST(InplaceCallback, HeapWrapBoxesOversizedCaptures)
{
    // 3x the inline budget: would be a compile error without boxing.
    struct Big
    {
        char payload[192] = {};
    };
    Big big;
    big.payload[0] = 1;
    int out = 0;
    InplaceCallback<64> cb =
        heapWrap([big, &out] { out = big.payload[0]; });
    EXPECT_TRUE(static_cast<bool>(cb));
    cb();
    EXPECT_EQ(out, 1);
}

TEST(InplaceCallback, SelfMoveAssignIsSafe)
{
    int hits = 0;
    InplaceCallback<64> cb([&hits] { ++hits; });
    InplaceCallback<64> &alias = cb;
    cb = std::move(alias);
    ASSERT_TRUE(static_cast<bool>(cb));
    cb();
    EXPECT_EQ(hits, 1);
}

// --- relocation: memcpy for trivially copyable targets ----------------

TEST(InplaceCallback, TriviallyCopyableCaptureSurvivesRepeatedMoves)
{
    // The hot-path capture shape: pointers, integers and a whole
    // net::Message, all trivially copyable, so every move is a memcpy.
    net::Message msg;
    msg.id = 0x0123456789abcdefULL;
    msg.bytes = 4096;
    msg.kind = 3;
    std::uint64_t out = 0;
    std::uint64_t *sink = &out;
    const std::uint32_t idx = 77;
    auto fn = [msg, sink, idx] { *sink = msg.id ^ msg.bytes ^ msg.kind ^ idx; };
    static_assert(std::is_trivially_copyable_v<decltype(fn)>);
    InplaceCallback<80> a(fn);
    for (int i = 0; i < 100; ++i) {
        InplaceCallback<80> b(std::move(a));
        EXPECT_FALSE(static_cast<bool>(a));
        a = std::move(b);
        EXPECT_FALSE(static_cast<bool>(b));
    }
    a();
    EXPECT_EQ(out, msg.id ^ msg.bytes ^ msg.kind ^ idx);
}

TEST(InplaceCallback, TriviallyCopyableCapturesSurviveRingGrowth)
{
    // Push far past the ring's initial capacity with a rotating head,
    // so the captures relocate through several regrowths.
    RingQueue<InplaceCallback<64>> ring;
    std::int64_t sum = 0;
    std::int64_t want = 0;
    int next = 0;
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 40; ++i, ++next) {
            const std::int64_t v = next * 7 + 1;
            ring.push_back([v, &sum] { sum += v; });
        }
        for (int i = 0; i < 15; ++i) {
            InplaceCallback<64> cb = ring.pop_front();
            cb();
        }
    }
    while (!ring.empty()) {
        InplaceCallback<64> cb = ring.pop_front();
        cb();
    }
    for (int i = 0; i < next; ++i)
        want += static_cast<std::int64_t>(i) * 7 + 1;
    EXPECT_EQ(sum, want);
}

/** Counts destructions of live (not moved-from) copies. */
struct DtorCounter
{
    int *destroyed;
    bool live = true;

    explicit DtorCounter(int *d) : destroyed(d) {}
    DtorCounter(DtorCounter &&o) noexcept : destroyed(o.destroyed)
    {
        o.live = false;
    }
    DtorCounter(const DtorCounter &) = delete;
    ~DtorCounter()
    {
        if (live)
            ++*destroyed;
    }
};

TEST(InplaceCallback, NonTrivialCaptureDestroyedOnceAfterMoves)
{
    int destroyed = 0;
    {
        auto fn = [c = DtorCounter(&destroyed)] { (void)c; };
        static_assert(!std::is_trivially_copyable_v<decltype(fn)>);
        InplaceCallback<64> a(std::move(fn));
        for (int i = 0; i < 10; ++i) {
            InplaceCallback<64> b(std::move(a));
            a = std::move(b);
        }
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(InplaceCallback, NonTrivialCaptureDestroyedOnceOnReset)
{
    int destroyed = 0;
    InplaceCallback<64> a([c = DtorCounter(&destroyed)] { (void)c; });
    for (int i = 0; i < 5; ++i) {
        InplaceCallback<64> b(std::move(a));
        a = std::move(b);
    }
    a.reset();
    EXPECT_EQ(destroyed, 1);
    EXPECT_FALSE(static_cast<bool>(a));
    a.reset();
    a = nullptr;
    EXPECT_EQ(destroyed, 1);
}

TEST(InplaceCallback, EmplaceReplacesTargetInPlace)
{
    int destroyed = 0;
    int calls = 0;
    InplaceCallback<64> a([c = DtorCounter(&destroyed)] { (void)c; });
    a.emplace([&calls] { ++calls; });
    // The old target is destroyed before the new one is built.
    EXPECT_EQ(destroyed, 1);
    a();
    EXPECT_EQ(calls, 1);
    InplaceCallback<64> empty;
    empty.emplace([c = DtorCounter(&destroyed)] { (void)c; });
    EXPECT_TRUE(static_cast<bool>(empty));
    empty.reset();
    EXPECT_EQ(destroyed, 2);
}

} // namespace
} // namespace tpv
