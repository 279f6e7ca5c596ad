#include "sim/random.hh"

#include <cmath>

#include "sim/logging.hh"

namespace tpv {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // xoshiro must not start from the all-zero state; splitmix64 of any
    // seed cannot produce four zero words in a row, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t
Rng::u64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform01()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(u64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform01();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    TPV_ASSERT(lo <= hi, "uniformInt with lo > hi");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(u64());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t v;
    do {
        v = u64();
    } while (v >= limit);
    return lo + static_cast<std::int64_t>(v % span);
}

bool
Rng::chance(double p)
{
    return uniform01() < p;
}

double
Rng::exponential(double mean)
{
    TPV_ASSERT(mean > 0, "exponential mean must be positive");
    double u;
    do {
        u = uniform01();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::standardNormal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spareNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform01();
    } while (u1 <= 0.0);
    u2 = uniform01();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spareNormal_ = r * std::sin(theta);
    hasSpare_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double sd)
{
    return mean + sd * standardNormal();
}

Rng::Lognormal::Lognormal(double mean, double sd)
{
    TPV_ASSERT(mean > 0, "lognormal mean must be positive");
    if (sd <= 0) {
        fixed = mean;
        return;
    }
    const double variance = sd * sd;
    const double sigma2 = std::log(1.0 + variance / (mean * mean));
    mu = std::log(mean) - 0.5 * sigma2;
    sigma = std::sqrt(sigma2);
}

double
Rng::lognormal(const Lognormal &p)
{
    if (p.fixed > 0)
        return p.fixed;
    return std::exp(p.mu + p.sigma * standardNormal());
}

double
Rng::lognormalMeanSd(double mean, double sd)
{
    return lognormal(Lognormal(mean, sd));
}

double
Rng::generalizedPareto(double mu, double sigma, double xi)
{
    TPV_ASSERT(sigma > 0, "GPD sigma must be positive");
    double u;
    do {
        u = uniform01();
    } while (u <= 0.0);
    if (std::abs(xi) < 1e-12)
        return mu - sigma * std::log(u);
    return mu + sigma * (std::pow(u, -xi) - 1.0) / xi;
}

double
Rng::generalizedExtremeValue(double mu, double sigma, double xi)
{
    TPV_ASSERT(sigma > 0, "GEV sigma must be positive");
    double u;
    do {
        u = uniform01();
    } while (u <= 0.0 || u >= 1.0);
    const double ln = -std::log(u);
    if (std::abs(xi) < 1e-12)
        return mu - sigma * std::log(ln);
    return mu + sigma * (std::pow(ln, -xi) - 1.0) / xi;
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    TPV_ASSERT(!weights.empty(), "discrete() needs at least one weight");
    double total = 0.0;
    for (double w : weights) {
        TPV_ASSERT(w >= 0.0, "negative weight in discrete()");
        total += w;
    }
    TPV_ASSERT(total > 0.0, "discrete() weights sum to zero");
    double x = uniform01() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        x -= weights[i];
        if (x < 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork()
{
    // Mix two fresh outputs into a child seed; advancing the parent
    // keeps successive forks independent.
    const std::uint64_t a = u64();
    const std::uint64_t b = u64();
    return Rng(a ^ rotl(b, 32));
}

Time
Rng::exponentialTime(Time mean)
{
    TPV_ASSERT(mean > 0, "exponentialTime mean must be positive");
    return static_cast<Time>(exponential(static_cast<double>(mean)));
}

} // namespace tpv
