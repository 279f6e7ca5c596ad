#include "stats/normality.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "stats/descriptive.hh"

namespace tpv {
namespace stats {

namespace {

/**
 * Raw A^2 against a fully specified CDF given the sorted probability
 * integral transforms u_i = F(x_(i)).
 */
double
aSquaredFromU(const std::vector<double> &u)
{
    const auto n = static_cast<double>(u.size());
    double sum = 0;
    for (std::size_t i = 0; i < u.size(); ++i) {
        const double ui = std::clamp(u[i], 1e-15, 1.0 - 1e-15);
        const double uj =
            std::clamp(u[u.size() - 1 - i], 1e-15, 1.0 - 1e-15);
        sum += (2.0 * static_cast<double>(i + 1) - 1.0) *
               (std::log(ui) + std::log1p(-uj));
    }
    return -n - sum / n;
}

} // namespace

AndersonDarlingExpResult
andersonDarlingExponential(const std::vector<double> &xs)
{
    TPV_ASSERT(xs.size() >= 8, "AD exponentiality test needs >= 8 samples");
    const double m = mean(xs);
    TPV_ASSERT(m > 0, "exponential samples must have positive mean");

    std::vector<double> ys = sorted(xs);
    std::vector<double> u(ys.size());
    for (std::size_t i = 0; i < ys.size(); ++i) {
        TPV_ASSERT(ys[i] >= 0, "negative value in exponentiality test");
        u[i] = 1.0 - std::exp(-ys[i] / m);
    }

    const double a2 = aSquaredFromU(u);
    const double n = static_cast<double>(xs.size());
    AndersonDarlingExpResult res;
    // Stephens' adjustment for an estimated exponential mean.
    res.aSquared = a2 * (1.0 + 0.6 / n);
    return res;
}

} // namespace stats
} // namespace tpv
