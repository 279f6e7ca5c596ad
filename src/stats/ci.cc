#include "stats/ci.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "stats/descriptive.hh"
#include "stats/normal.hh"

namespace tpv {
namespace stats {

bool
ConfInterval::overlaps(const ConfInterval &other) const
{
    return lower <= other.upper && other.lower <= upper;
}

bool
ConfInterval::contains(double v) const
{
    return v >= lower && v <= upper;
}

ConfInterval
nonparametricMedianCI(const std::vector<double> &xs, double level)
{
    TPV_ASSERT(xs.size() >= 2, "nonparametric CI needs >= 2 samples");
    const std::vector<double> ys = sorted(xs);
    const auto n = static_cast<double>(ys.size());
    const double z = zForConfidence(level);

    // Paper Eq. 1-2 (1-based ranks).
    auto lowRank = static_cast<long>(std::floor((n - z * std::sqrt(n)) / 2.0));
    auto highRank =
        static_cast<long>(std::ceil(1.0 + (n + z * std::sqrt(n)) / 2.0));
    lowRank = std::clamp<long>(lowRank, 1, static_cast<long>(ys.size()));
    highRank = std::clamp<long>(highRank, 1, static_cast<long>(ys.size()));

    ConfInterval ci;
    ci.lower = ys[static_cast<std::size_t>(lowRank - 1)];
    ci.upper = ys[static_cast<std::size_t>(highRank - 1)];
    ci.center = median(ys);
    ci.level = level;
    TPV_ASSERT(ci.lower <= ci.center && ci.center <= ci.upper,
               "median escaped its own CI");
    return ci;
}

int
confidentOrdering(const ConfInterval &a, const ConfInterval &b)
{
    if (a.overlaps(b))
        return 0;
    return a.lower > b.upper ? +1 : -1;
}

ConfInterval
bootstrapMedianCI(const std::vector<double> &xs, double level, int rounds,
                  std::uint64_t seed)
{
    TPV_ASSERT(xs.size() >= 2, "bootstrap CI needs >= 2 samples");
    TPV_ASSERT(rounds >= 100, "bootstrap needs >= 100 rounds");
    TPV_ASSERT(level > 0 && level < 1, "bad confidence level");

    Rng rng(seed);
    const auto n = static_cast<std::int64_t>(xs.size());
    std::vector<double> medians;
    medians.reserve(static_cast<std::size_t>(rounds));
    std::vector<double> resample(xs.size());
    for (int r = 0; r < rounds; ++r) {
        for (auto &v : resample)
            v = xs[static_cast<std::size_t>(rng.uniformInt(0, n - 1))];
        medians.push_back(median(resample));
    }

    ConfInterval ci;
    ci.level = level;
    ci.center = median(xs);
    ci.lower = percentile(medians, 100.0 * (1.0 - level) / 2.0);
    ci.upper = percentile(medians, 100.0 * (1.0 + level) / 2.0);
    // The point estimate can sit at the interval edge for tiny
    // samples; widen minimally to preserve the invariant.
    ci.lower = std::min(ci.lower, ci.center);
    ci.upper = std::max(ci.upper, ci.center);
    return ci;
}

} // namespace stats
} // namespace tpv
