/**
 * @file
 * Standard normal distribution functions plus the special functions
 * (regularised incomplete beta, Student-t CDF) needed by the
 * hypothesis tests in this library. Everything is implemented from
 * published algorithms so the library has no dependency beyond libm.
 */

#ifndef TPV_STATS_NORMAL_HH
#define TPV_STATS_NORMAL_HH

namespace tpv {
namespace stats {

/** Standard normal CDF Phi(x), via erfc for full-tail accuracy. */
double normalCdf(double x);

/** Upper tail 1 - Phi(x), computed without cancellation. */
double normalSf(double x);

/**
 * Standard normal quantile Phi^{-1}(p) for p in (0, 1).
 * Acklam's rational approximation refined with one Halley step,
 * giving ~1e-15 relative accuracy over the full domain.
 */
double normalQuantile(double p);

/**
 * Regularised incomplete beta function I_x(a, b), by the continued
 * fraction of Lentz's method (Numerical Recipes betacf).
 */
double incompleteBeta(double a, double b, double x);

/** CDF of the Student-t distribution with @p df degrees of freedom. */
double studentTCdf(double t, double df);

/**
 * Two-sided p-value for a Student-t statistic with @p df degrees of
 * freedom: P(|T| >= |t|).
 */
double studentTTwoSidedP(double t, double df);

/**
 * Standard score z for a two-sided confidence level, e.g.
 * 0.95 -> 1.95996. The paper rounds this to 1.96.
 */
double zForConfidence(double level);

} // namespace stats
} // namespace tpv

#endif // TPV_STATS_NORMAL_HH
