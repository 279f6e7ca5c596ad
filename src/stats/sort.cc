#include "stats/sort.hh"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace tpv {
namespace stats {

namespace {

/** Buckets this small sort faster by comparison than by another
 *  byte's pass. */
constexpr std::size_t kSmallBucket = 64;

/** Bits of +infinity; every bit pattern above it is a NaN or has the
 *  sign bit set. */
constexpr std::uint64_t kPosInfBits = 0x7FF0000000000000ULL;

unsigned
byteAt(double x, unsigned shift)
{
    return static_cast<unsigned>(std::bit_cast<std::uint64_t>(x) >> shift) &
           0xFFu;
}

/**
 * Permute [first, last) so that it ascends by the byte at @p shift
 * (American flag sort: count, then cycle each element into its
 * bucket). Offsets are 32-bit, which keeps the two tables at 2 KB;
 * sortSamples() sends longer vectors to std::sort.
 */
void
partitionByByte(double *first, double *last, unsigned shift)
{
    std::uint32_t next[256] = {};
    std::uint32_t end[256];
    const auto n = static_cast<std::uint32_t>(last - first);
    for (const double *p = first; p != last; ++p)
        ++next[byteAt(*p, shift)];
    std::uint32_t start = 0;
    for (unsigned b = 0; b < 256; ++b) {
        const std::uint32_t count = next[b];
        if (count == n)
            return; // one bucket holds every element
        next[b] = start;
        start += count;
        end[b] = start;
    }
    for (unsigned b = 0; b < 256; ++b) {
        while (next[b] < end[b]) {
            double v = first[next[b]];
            unsigned d = byteAt(v, shift);
            while (d != b) {
                std::swap(v, first[next[d]++]);
                d = byteAt(v, shift);
            }
            first[next[b]++] = v;
        }
    }
}

} // namespace

bool
sortSamples(std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    if (n <= kSmallBucket || n > std::numeric_limits<std::uint32_t>::max()) {
        std::sort(xs.begin(), xs.end());
        return false;
    }
    // One pass decides the path and finds the bytes the samples share.
    const std::uint64_t first = std::bit_cast<std::uint64_t>(xs[0]);
    std::uint64_t maxBits = 0;
    std::uint64_t varying = 0;
    for (double x : xs) {
        const auto bits = std::bit_cast<std::uint64_t>(x);
        maxBits = std::max(maxBits, bits);
        varying |= bits ^ first;
    }
    if (maxBits > kPosInfBits) {
        std::sort(xs.begin(), xs.end());
        return false;
    }
    if (varying == 0)
        return true; // every sample has the same bits

    // Depth-first over the buckets, one level per byte. A level keeps
    // only where its next unsorted bucket starts: buckets are
    // contiguous runs of one byte value, so the next one's end is
    // found by scanning, not stored (a stored table would cost 1-2 KB
    // of stack per level).
    struct Level
    {
        double *pos;
        double *end;
        unsigned shift;
    };
    Level stack[8] = {};
    int top = 0;
    const auto topShift =
        static_cast<unsigned>((63 - std::countl_zero(varying)) / 8 * 8);
    stack[0] = {xs.data(), xs.data() + n, topShift};
    partitionByByte(stack[0].pos, stack[0].end, topShift);
    while (top >= 0) {
        Level &lv = stack[top];
        if (lv.pos == lv.end) {
            --top;
            continue;
        }
        double *b = lv.pos;
        const unsigned d = byteAt(*b, lv.shift);
        double *e = b + 1;
        while (e != lv.end && byteAt(*e, lv.shift) == d)
            ++e;
        lv.pos = e;
        if (static_cast<std::size_t>(e - b) <= kSmallBucket) {
            std::sort(b, e);
            continue;
        }
        if (lv.shift == 0)
            continue; // every byte matched: the bucket is one value
        const unsigned shift = lv.shift - 8;
        partitionByByte(b, e, shift);
        stack[++top] = {b, e, shift};
    }
    return true;
}

} // namespace stats
} // namespace tpv
