/**
 * @file
 * Anderson-Darling goodness-of-fit test for exponentiality (the
 * check Lancet applies to request inter-arrival times, paper
 * Section VII).
 */

#ifndef TPV_STATS_NORMALITY_HH
#define TPV_STATS_NORMALITY_HH

#include <vector>

namespace tpv {
namespace stats {

/** Result of the exponentiality test. */
struct AndersonDarlingExpResult
{
    /** A^2 adjusted for an estimated mean. */
    double aSquared = 0;
    /** 5% critical value for the exponential with estimated mean. */
    double criticalValue5 = 1.321;

    /** @return true when exponential fit is not rejected at 5%. */
    bool exponentialAt5() const { return aSquared < criticalValue5; }
};

/**
 * Anderson-Darling test for exponentiality with estimated mean —
 * Lancet's check that an open-loop generator's inter-arrival times
 * actually follow the requested exponential distribution.
 * @pre xs.size() >= 8, all values > 0.
 */
AndersonDarlingExpResult
andersonDarlingExponential(const std::vector<double> &xs);

} // namespace stats
} // namespace tpv

#endif // TPV_STATS_NORMALITY_HH
