/**
 * @file
 * Sample-dependence diagnostics (paper Section III "IID samples" and
 * the Lancet-style checks of Section VII): autocorrelation, Spearman
 * rank correlation, and a simple (augmented) Dickey-Fuller
 * stationarity test.
 */

#ifndef TPV_STATS_DEPENDENCE_HH
#define TPV_STATS_DEPENDENCE_HH

#include <cstddef>
#include <vector>

namespace tpv {
namespace stats {

/**
 * Sample autocorrelation at lag @p lag:
 *   r_k = sum_{i<n-k} (x_i - m)(x_{i+k} - m) / sum_i (x_i - m)^2
 * Returns a value in [-1, 1]; near 0 indicates independence.
 * @pre 1 <= lag < xs.size()
 */
double autocorrelation(const std::vector<double> &xs, std::size_t lag = 1);

/**
 * Practical iid screen: true when |r_k| stays below the approximate
 * 95% white-noise band 1.96/sqrt(n) for all lags 1..maxLag.
 */
bool looksIndependent(const std::vector<double> &xs, std::size_t maxLag = 5);

/** Result of a Spearman rank-correlation test. */
struct SpearmanResult
{
    /** Rank correlation coefficient rho in [-1, 1]. */
    double rho = 0;
    /** Two-sided p-value for rho != 0 (t approximation). */
    double pValue = 1;
};

/**
 * Spearman rank correlation between two equal-length series, with
 * average ranks for ties (Lancet uses this to check independence of
 * successive samples).
 * @pre xs.size() == ys.size() && xs.size() >= 3
 */
SpearmanResult spearman(const std::vector<double> &xs,
                        const std::vector<double> &ys);

/** Result of an execution-order effect screen. */
struct OrderEffectResult
{
    /** Spearman correlation between execution position and value. */
    double rho = 0;
    /** Two-sided p-value for rho != 0. */
    double pValue = 1;

    /**
     * @return true when results drift with execution order — the
     * "ordering trap" OrderSage (Duplyakin et al., ATC'23) guards
     * against; randomise the execution order when this fires.
     */
    bool orderEffectAt(double alpha = 0.05) const
    {
        return pValue < alpha;
    }
};

/**
 * Screen a series of per-run results (in execution order) for a
 * dependence on that order — e.g. thermal drift or ageing effects
 * that bias later runs.
 * @pre xs.size() >= 3
 */
OrderEffectResult orderEffect(const std::vector<double> &xs);

/** Result of the Dickey-Fuller stationarity test. */
struct DickeyFullerResult
{
    /** The DF t-statistic on the lagged-level coefficient. */
    double statistic = 0;
    /** 5% critical value (constant, no trend, large n): -2.86. */
    double criticalValue5 = -2.86;

    /** @return true when the unit-root null is rejected at 5%. */
    bool stationaryAt5() const { return statistic < criticalValue5; }
};

/**
 * Dickey-Fuller test: regress dx_t on x_{t-1} with an intercept and
 * report the t-statistic of the x_{t-1} coefficient. Lancet runs the
 * augmented variant to confirm sample stationarity before reporting
 * latency percentiles.
 * @pre xs.size() >= 10
 */
DickeyFullerResult dickeyFuller(const std::vector<double> &xs);

} // namespace stats
} // namespace tpv

#endif // TPV_STATS_DEPENDENCE_HH
