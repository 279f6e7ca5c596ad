#include "stats/descriptive.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace tpv {
namespace stats {

double
mean(const std::vector<double> &xs)
{
    TPV_ASSERT(!xs.empty(), "mean of empty sample set");
    double sum = 0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
stdev(const std::vector<double> &xs)
{
    TPV_ASSERT(xs.size() >= 2, "stdev needs at least two samples");
    const double m = mean(xs);
    double ss = 0;
    for (double x : xs)
        ss += (x - m) * (x - m);
    return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double
minValue(const std::vector<double> &xs)
{
    TPV_ASSERT(!xs.empty(), "min of empty sample set");
    return *std::min_element(xs.begin(), xs.end());
}

double
maxValue(const std::vector<double> &xs)
{
    TPV_ASSERT(!xs.empty(), "max of empty sample set");
    return *std::max_element(xs.begin(), xs.end());
}

std::vector<double>
sorted(const std::vector<double> &xs)
{
    std::vector<double> ys(xs);
    std::sort(ys.begin(), ys.end());
    return ys;
}

double
median(const std::vector<double> &xs)
{
    TPV_ASSERT(!xs.empty(), "median of empty sample set");
    const std::vector<double> ys = sorted(xs);
    return SortedView(ys).median();
}

double
percentile(const std::vector<double> &xs, double p)
{
    TPV_ASSERT(!xs.empty(), "percentile of empty sample set");
    const std::vector<double> ys = sorted(xs);
    return SortedView(ys).percentile(p);
}

SortedView::SortedView(const std::vector<double> &sortedXs)
    : xs_(&sortedXs)
{
    TPV_ASSERT(std::is_sorted(sortedXs.begin(), sortedXs.end()),
               "SortedView over unsorted samples");
}

double
SortedView::min() const
{
    TPV_ASSERT(!empty(), "min of empty sample set");
    return xs_->front();
}

double
SortedView::max() const
{
    TPV_ASSERT(!empty(), "max of empty sample set");
    return xs_->back();
}

double
SortedView::percentile(double p) const
{
    TPV_ASSERT(!empty(), "percentile of empty sample set");
    TPV_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of [0,100]: ", p);
    const std::vector<double> &ys = *xs_;
    const std::size_t n = ys.size();
    if (n == 1)
        return ys[0];
    const double rank = (p / 100.0) * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - std::floor(rank);
    return ys[lo] + frac * (ys[hi] - ys[lo]);
}

Summary
Summary::of(const std::vector<double> &xs)
{
    if (xs.empty())
        return Summary{};
    return ofSorted(sorted(xs));
}

Summary
Summary::ofSorted(const std::vector<double> &sortedXs)
{
    Summary s;
    s.count = sortedXs.size();
    if (sortedXs.empty())
        return s;
    const SortedView view(sortedXs);
    s.min = view.min();
    s.max = view.max();
    double sum = 0;
    for (double x : sortedXs)
        sum += x;
    s.mean = sum / static_cast<double>(sortedXs.size());
    if (sortedXs.size() >= 2) {
        double ss = 0;
        for (double x : sortedXs)
            ss += (x - s.mean) * (x - s.mean);
        s.stdev = std::sqrt(ss / static_cast<double>(sortedXs.size() - 1));
    }
    s.median = view.median();
    s.p90 = view.percentile(90.0);
    s.p95 = view.percentile(95.0);
    s.p99 = view.percentile(99.0);
    return s;
}

} // namespace stats
} // namespace tpv
