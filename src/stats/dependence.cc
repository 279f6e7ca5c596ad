#include "stats/dependence.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/logging.hh"
#include "stats/descriptive.hh"
#include "stats/normal.hh"

namespace tpv {
namespace stats {

double
autocorrelation(const std::vector<double> &xs, std::size_t lag)
{
    TPV_ASSERT(lag >= 1 && lag < xs.size(),
               "autocorrelation lag out of range");
    const double m = mean(xs);
    double num = 0, den = 0;
    for (std::size_t i = 0; i < xs.size(); ++i)
        den += (xs[i] - m) * (xs[i] - m);
    if (den == 0)
        return 0; // constant series: define r_k = 0
    for (std::size_t i = 0; i + lag < xs.size(); ++i)
        num += (xs[i] - m) * (xs[i + lag] - m);
    return num / den;
}

bool
looksIndependent(const std::vector<double> &xs, std::size_t maxLag)
{
    TPV_ASSERT(xs.size() > maxLag + 1, "series too short for iid screen");
    const double band = 1.96 / std::sqrt(static_cast<double>(xs.size()));
    for (std::size_t k = 1; k <= maxLag; ++k) {
        if (std::abs(autocorrelation(xs, k)) > band)
            return false;
    }
    return true;
}

namespace {

/** Average ranks with tie handling. */
std::vector<double>
ranks(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });

    std::vector<double> r(n);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && xs[idx[j + 1]] == xs[idx[i]])
            ++j;
        // Ranks are 1-based; ties share the average rank.
        const double avg = (static_cast<double>(i) +
                            static_cast<double>(j)) / 2.0 + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            r[idx[k]] = avg;
        i = j + 1;
    }
    return r;
}

} // namespace

SpearmanResult
spearman(const std::vector<double> &xs, const std::vector<double> &ys)
{
    TPV_ASSERT(xs.size() == ys.size(), "spearman needs equal lengths");
    TPV_ASSERT(xs.size() >= 3, "spearman needs >= 3 pairs");

    const std::vector<double> rx = ranks(xs);
    const std::vector<double> ry = ranks(ys);
    const double mx = mean(rx);
    const double my = mean(ry);

    double num = 0, dx = 0, dy = 0;
    for (std::size_t i = 0; i < rx.size(); ++i) {
        num += (rx[i] - mx) * (ry[i] - my);
        dx += (rx[i] - mx) * (rx[i] - mx);
        dy += (ry[i] - my) * (ry[i] - my);
    }

    SpearmanResult res;
    if (dx == 0 || dy == 0) {
        res.rho = 0;
        res.pValue = 1;
        return res;
    }
    res.rho = num / std::sqrt(dx * dy);

    const double n = static_cast<double>(xs.size());
    const double df = n - 2.0;
    const double denom = 1.0 - res.rho * res.rho;
    if (denom <= 0) {
        res.pValue = 0;
        return res;
    }
    const double t = res.rho * std::sqrt(df / denom);
    res.pValue = studentTTwoSidedP(t, df);
    return res;
}

OrderEffectResult
orderEffect(const std::vector<double> &xs)
{
    TPV_ASSERT(xs.size() >= 3, "order-effect screen needs >= 3 runs");
    std::vector<double> position(xs.size());
    std::iota(position.begin(), position.end(), 0.0);
    const SpearmanResult s = spearman(position, xs);
    OrderEffectResult res;
    res.rho = s.rho;
    res.pValue = s.pValue;
    return res;
}

DickeyFullerResult
dickeyFuller(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    TPV_ASSERT(n >= 10, "Dickey-Fuller needs >= 10 samples");

    // Regress dx_t = alpha + gamma * x_{t-1} + e_t, t = 1..n-1.
    const std::size_t m = n - 1;
    double sumX = 0, sumY = 0;
    for (std::size_t t = 0; t < m; ++t) {
        sumX += xs[t];
        sumY += xs[t + 1] - xs[t];
    }
    const double mx = sumX / static_cast<double>(m);
    const double my = sumY / static_cast<double>(m);

    double sxx = 0, sxy = 0;
    for (std::size_t t = 0; t < m; ++t) {
        const double cx = xs[t] - mx;
        sxx += cx * cx;
        sxy += cx * (xs[t + 1] - xs[t] - my);
    }

    DickeyFullerResult res;
    if (sxx == 0) {
        // Constant level: no unit root information; call it stationary.
        res.statistic = -1e9;
        return res;
    }
    const double gamma = sxy / sxx;
    const double alpha = my - gamma * mx;

    double sse = 0;
    for (std::size_t t = 0; t < m; ++t) {
        const double fit = alpha + gamma * xs[t];
        const double resid = (xs[t + 1] - xs[t]) - fit;
        sse += resid * resid;
    }
    const double dof = static_cast<double>(m) - 2.0;
    TPV_ASSERT(dof > 0, "Dickey-Fuller degrees of freedom exhausted");
    const double s2 = sse / dof;
    const double seGamma = std::sqrt(s2 / sxx);
    res.statistic = seGamma > 0 ? gamma / seGamma : -1e9;
    return res;
}

} // namespace stats
} // namespace tpv
