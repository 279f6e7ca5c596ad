/**
 * @file
 * Sorting sample vectors: the end-of-run sort every repetition pays
 * before its percentiles can be read.
 */

#ifndef TPV_STATS_SORT_HH
#define TPV_STATS_SORT_HH

#include <vector>

namespace tpv {
namespace stats {

/**
 * Sort @p xs ascending in place, with exactly std::sort's result.
 *
 * Non-negative doubles that are not NaN order like their IEEE-754 bit
 * patterns read as unsigned integers, and two of them are equal
 * exactly when their bits are. So an in-place MSD radix sort over the
 * bits (American flag sort, one byte per level, starting at the
 * highest byte in which the samples differ) yields the same bytes as
 * std::sort on such a vector. Buckets of at most 64 samples go to
 * std::sort, and so does every vector that holds a negative value,
 * -0.0 or a NaN: -0.0 equals +0.0 with other bits, so only std::sort
 * itself reproduces std::sort's order there. The sort allocates
 * nothing, and descends through an explicit eight-level stack, so its
 * stack use stays a few KB whatever the data.
 *
 * @return true when the radix path sorted @p xs, false when it went
 *         to std::sort whole (n <= 64, or a negative, -0.0 or NaN).
 */
bool sortSamples(std::vector<double> &xs);

} // namespace stats
} // namespace tpv

#endif // TPV_STATS_SORT_HH
