/**
 * @file
 * Shared allocation-counting plumbing for the hot-path benchmark
 * binaries: a replaced global operator new/delete pair that counts
 * every heap allocation, and the Message sink the event-queue
 * delivery benchmarks fire into.
 *
 * Include from exactly ONE translation unit per binary — the
 * operator new/delete definitions are global replacements, not
 * inline functions. GCC's mismatched-new-delete heuristic cannot see
 * through the replacement and flags the matched malloc/free pair;
 * the including target compiles with -Wno-mismatched-new-delete for
 * that false positive.
 */

#ifndef TPV_BENCH_ALLOC_COUNTER_HH
#define TPV_BENCH_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdlib>
#include <new>

#include "net/message.hh"

namespace tpv {
namespace bench {

/** Heap allocations performed by the binary so far. */
inline std::atomic<std::uint64_t> g_allocs{0};

/** Message sink for the event-queue delivery benchmarks. */
struct Sink : net::Endpoint
{
    std::uint64_t seen = 0;

    void
    onMessage(const net::Message &m) override
    {
        seen += m.id;
    }
};

} // namespace bench
} // namespace tpv

void *
operator new(std::size_t n)
{
    tpv::bench::g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    tpv::bench::g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

#endif // TPV_BENCH_ALLOC_COUNTER_HH
