/**
 * @file
 * Tests for non-stationary load profiles: shape queries, empirical
 * mean rate, and burstiness (index of dispersion of counts) of the
 * arrival processes each profile induces.
 */

#include "loadgen/load_profile.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace tpv {
namespace loadgen {
namespace {

/** Arrivals of the profile-modulated process on [0, horizon). */
std::vector<Time>
sampleArrivals(const LoadProfile &p, Time baseGapMean, Time horizon,
               std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Time> arrivals;
    Time t = 0;
    for (;;) {
        t = p.nextArrival(t, baseGapMean, rng);
        if (t >= horizon)
            return arrivals;
        arrivals.push_back(t);
    }
}

/** Index of dispersion of counts: var/mean of per-bin arrival counts.
 *  1 for a homogeneous Poisson process, > 1 for bursty processes. */
double
indexOfDispersion(const std::vector<Time> &arrivals, Time horizon,
                  Time binWidth)
{
    const std::size_t bins =
        static_cast<std::size_t>(horizon / binWidth);
    std::vector<double> counts(bins, 0.0);
    for (Time t : arrivals) {
        const std::size_t b = static_cast<std::size_t>(t / binWidth);
        if (b < bins)
            counts[b] += 1.0;
    }
    double mean = 0;
    for (double c : counts)
        mean += c;
    mean /= static_cast<double>(bins);
    double var = 0;
    for (double c : counts)
        var += (c - mean) * (c - mean);
    var /= static_cast<double>(bins - 1);
    return var / mean;
}

constexpr Time kHorizon = seconds(2);
constexpr Time kBaseGap = usec(100); // base rate 10k/s
constexpr Time kBin = msec(10);

TEST(LoadProfile, ConstantIsOneEverywhere)
{
    LoadProfile p(LoadProfileParams::constant(), kHorizon, Rng(1));
    EXPECT_DOUBLE_EQ(p.multiplierAt(0), 1.0);
    EXPECT_DOUBLE_EQ(p.multiplierAt(seconds(1)), 1.0);
    EXPECT_DOUBLE_EQ(p.maxMultiplier(), 1.0);
    EXPECT_DOUBLE_EQ(p.meanMultiplier(kHorizon), 1.0);
}

TEST(LoadProfile, DiurnalShape)
{
    // Amplitude 0.5, period 1s, no phase: peak at t=250ms, trough at
    // t=750ms, back to 1 at whole half-periods.
    LoadProfile p(LoadProfileParams::diurnal(0.5, seconds(1)), kHorizon,
                  Rng(1));
    EXPECT_NEAR(p.multiplierAt(0), 1.0, 1e-9);
    EXPECT_NEAR(p.multiplierAt(msec(250)), 1.5, 1e-9);
    EXPECT_NEAR(p.multiplierAt(msec(750)), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(p.maxMultiplier(), 1.5);
    // Whole periods average out to the base rate.
    EXPECT_NEAR(p.meanMultiplier(seconds(2)), 1.0, 1e-3);
}

TEST(LoadProfile, StepShape)
{
    LoadProfile p(
        LoadProfileParams::flashCrowd(3.0, msec(500), msec(1500)),
        kHorizon, Rng(1));
    EXPECT_DOUBLE_EQ(p.multiplierAt(msec(100)), 1.0);
    EXPECT_DOUBLE_EQ(p.multiplierAt(msec(500)), 3.0);
    EXPECT_DOUBLE_EQ(p.multiplierAt(msec(1499)), 3.0);
    EXPECT_DOUBLE_EQ(p.multiplierAt(msec(1500)), 1.0);
    EXPECT_DOUBLE_EQ(p.maxMultiplier(), 3.0);
    // Crowd covers half the 2s horizon: mean = (1 + 3) / 2.
    EXPECT_NEAR(p.meanMultiplier(kHorizon), 2.0, 1e-9);
}

TEST(LoadProfile, MmppAlternatesBetweenLevels)
{
    LoadProfile p(LoadProfileParams::mmpp(4.0, msec(50), msec(20)),
                  kHorizon, Rng(31337));
    bool sawCalm = false, sawBurst = false;
    for (Time t = 0; t < kHorizon; t += msec(1)) {
        const double m = p.multiplierAt(t);
        EXPECT_TRUE(m == 1.0 || m == 4.0) << "unexpected level " << m;
        sawCalm = sawCalm || m == 1.0;
        sawBurst = sawBurst || m == 4.0;
    }
    EXPECT_TRUE(sawCalm);
    EXPECT_TRUE(sawBurst);
    EXPECT_DOUBLE_EQ(p.maxMultiplier(), 4.0);
}

TEST(LoadProfile, EmpiricalMeanRateMatchesProfileMean)
{
    // For every shape, the realised arrival count over the horizon
    // must match base rate x the profile's own mean multiplier.
    const std::vector<LoadProfileParams> shapes = {
        LoadProfileParams::constant(),
        LoadProfileParams::diurnal(0.8, msec(400)),
        LoadProfileParams::flashCrowd(3.0, msec(500), msec(1500)),
        LoadProfileParams::mmpp(4.0, msec(50), msec(20)),
    };
    for (const auto &shape : shapes) {
        LoadProfile p(shape, kHorizon, Rng(9));
        const auto arrivals = sampleArrivals(p, kBaseGap, kHorizon, 17);
        const double expected = static_cast<double>(kHorizon) /
                                static_cast<double>(kBaseGap) *
                                p.meanMultiplier(kHorizon);
        EXPECT_NEAR(static_cast<double>(arrivals.size()), expected,
                    0.05 * expected)
            << toString(shape.kind);
    }
}

TEST(LoadProfile, ConstantArrivalsArePoisson)
{
    LoadProfile p(LoadProfileParams::constant(), kHorizon, Rng(2));
    const auto arrivals = sampleArrivals(p, kBaseGap, kHorizon, 23);
    const double idc = indexOfDispersion(arrivals, kHorizon, kBin);
    // Homogeneous Poisson: IDC ~ 1.
    EXPECT_GT(idc, 0.6);
    EXPECT_LT(idc, 1.6);
}

TEST(LoadProfile, NonstationaryShapesAreOverdispersed)
{
    // Burstiness check: rate modulation inflates the variance of
    // per-bin counts well past Poisson (IDC = 1).
    const std::vector<LoadProfileParams> shapes = {
        LoadProfileParams::diurnal(0.8, msec(400)),
        LoadProfileParams::flashCrowd(3.0, msec(500), msec(1500)),
        LoadProfileParams::mmpp(4.0, msec(50), msec(20)),
    };
    for (const auto &shape : shapes) {
        LoadProfile p(shape, kHorizon, Rng(5));
        const auto arrivals = sampleArrivals(p, kBaseGap, kHorizon, 29);
        const double idc = indexOfDispersion(arrivals, kHorizon, kBin);
        EXPECT_GT(idc, 2.0) << toString(shape.kind)
                            << " should be bursty, IDC = " << idc;
    }
}

TEST(LoadProfile, ThinningIsSeedDeterministic)
{
    const auto shape = LoadProfileParams::mmpp(4.0, msec(50), msec(20));
    LoadProfile p(shape, kHorizon, Rng(77));
    const auto a = sampleArrivals(p, kBaseGap, kHorizon, 1234);
    const auto b = sampleArrivals(p, kBaseGap, kHorizon, 1234);
    EXPECT_EQ(a, b);
    // The MMPP trajectory itself is fixed by its seed: a second
    // profile from the same seed gives the same arrivals, and one
    // from another seed does not.
    LoadProfile same(shape, kHorizon, Rng(77));
    EXPECT_EQ(sampleArrivals(same, kBaseGap, kHorizon, 1234), a);
    LoadProfile other(shape, kHorizon, Rng(78));
    EXPECT_NE(sampleArrivals(other, kBaseGap, kHorizon, 1234), a);
}

TEST(LoadProfile, FlashCrowdFromZeroAppliesTheCrowdLevelAtZero)
{
    // The crowd step and the base step both start at 0; the crowd's,
    // being later in the step list, wins.
    LoadProfile p(LoadProfileParams::flashCrowd(3.0, 0, msec(500)),
                  kHorizon, Rng(1));
    EXPECT_DOUBLE_EQ(p.multiplierAt(0), 3.0);
    EXPECT_DOUBLE_EQ(p.multiplierAt(msec(499)), 3.0);
    EXPECT_DOUBLE_EQ(p.multiplierAt(msec(500)), 1.0);
    EXPECT_DOUBLE_EQ(p.maxMultiplier(), 3.0);
    EXPECT_NEAR(p.meanMultiplier(seconds(1)), 2.0, 1e-12);
}

/**
 * The MMPP trajectory read back through multiplierAt: the level and
 * start of each dwell. Probes every @p step and bisects each change
 * to the nanosecond; a dwell shorter than @p step can fall between
 * two probes and merge into its neighbours.
 */
struct Dwell
{
    Time start;
    double level;
};

std::vector<Dwell>
mmppDwells(const LoadProfile &p, Time horizon, Time step)
{
    std::vector<Dwell> dwells{{0, p.multiplierAt(0)}};
    for (Time t = step; t < horizon; t += step) {
        if (p.multiplierAt(t) == dwells.back().level)
            continue;
        // Bisect (t - step, t] for the first instant at the new level.
        Time lo = t - step, hi = t;
        while (hi - lo > 1) {
            const Time mid = lo + (hi - lo) / 2;
            (p.multiplierAt(mid) == dwells.back().level ? lo : hi) = mid;
        }
        dwells.push_back({hi, p.multiplierAt(hi)});
    }
    return dwells;
}

TEST(LoadProfile, MmppStartsCalmAndStrictlyAlternates)
{
    // The trajectory opens calm at t = 0 and every change flips
    // between exactly the two levels.
    LoadProfile p(LoadProfileParams::mmpp(4.0, msec(20), msec(5)),
                  seconds(1), Rng(7));
    const auto dwells = mmppDwells(p, seconds(1), usec(10));
    ASSERT_GT(dwells.size(), 10u);
    for (std::size_t i = 0; i < dwells.size(); ++i)
        EXPECT_DOUBLE_EQ(dwells[i].level, i % 2 == 0 ? 1.0 : 4.0) << i;
    // Past the materialised horizon the final level holds.
    EXPECT_DOUBLE_EQ(p.multiplierAt(seconds(5)), dwells.back().level);
}

TEST(LoadProfile, MmppDwellMeansMatchOverALongHorizon)
{
    // Over 200 s the mean dwell in each state approaches its
    // configured mean (20 ms calm, 5 ms burst). About 1% of bursts
    // are shorter than the 50 us probe step and go unseen, which
    // moves each mean by about 1%, well inside the 10% band.
    const Time horizon = seconds(200);
    LoadProfile p(LoadProfileParams::mmpp(2.0, msec(20), msec(5)),
                  horizon, Rng(4242));
    const auto dwells = mmppDwells(p, horizon, usec(50));
    double calmTotal = 0, burstTotal = 0;
    std::size_t calmN = 0, burstN = 0;
    for (std::size_t i = 0; i + 1 < dwells.size(); ++i) {
        const double len =
            static_cast<double>(dwells[i + 1].start - dwells[i].start);
        if (dwells[i].level == 1.0) {
            calmTotal += len;
            ++calmN;
        } else {
            burstTotal += len;
            ++burstN;
        }
    }
    ASSERT_GT(calmN, 1000u);
    ASSERT_GT(burstN, 1000u);
    EXPECT_NEAR(calmTotal / static_cast<double>(calmN),
                static_cast<double>(msec(20)),
                0.1 * static_cast<double>(msec(20)));
    EXPECT_NEAR(burstTotal / static_cast<double>(burstN),
                static_cast<double>(msec(5)),
                0.1 * static_cast<double>(msec(5)));
}

TEST(LoadProfile, RejectsBadParameters)
{
    const auto rejects = [](const LoadProfileParams &params,
                            const char *field) {
        EXPECT_DEATH(LoadProfile(params, kHorizon, Rng(1)), field);
    };
    const double nan = std::nan("");
    const double inf = HUGE_VAL;

    rejects(LoadProfileParams::diurnal(1.5, seconds(1)),
            "LoadProfileParams::amplitude");
    rejects(LoadProfileParams::diurnal(nan, seconds(1)),
            "LoadProfileParams::amplitude");
    rejects(LoadProfileParams::diurnal(inf, seconds(1)),
            "LoadProfileParams::amplitude");
    rejects(LoadProfileParams::diurnal(0.5, seconds(1), nan),
            "LoadProfileParams::phase");
    rejects(LoadProfileParams::diurnal(0.5, seconds(1), inf),
            "LoadProfileParams::phase");
    rejects(LoadProfileParams::diurnal(0.5, 0), "LoadProfileParams::period");

    rejects(LoadProfileParams::flashCrowd(3.0, msec(500), msec(100)),
            "LoadProfileParams::stepStart");
    rejects(LoadProfileParams::flashCrowd(3.0, -msec(1), msec(100)),
            "LoadProfileParams::stepStart");
    rejects(LoadProfileParams::flashCrowd(inf, msec(100), msec(500)),
            "LoadProfileParams::stepLevel");
    rejects(LoadProfileParams::flashCrowd(nan, msec(100), msec(500)),
            "LoadProfileParams::stepLevel");
    rejects(LoadProfileParams::flashCrowd(0, msec(100), msec(500)),
            "LoadProfileParams::stepLevel");
    auto step = LoadProfileParams::flashCrowd(3.0, msec(100), msec(500));
    step.stepBase = nan;
    rejects(step, "LoadProfileParams::stepBase");
    step.stepBase = inf;
    rejects(step, "LoadProfileParams::stepBase");

    rejects(LoadProfileParams::mmpp(0, msec(50), msec(20)),
            "LoadProfileParams::burstLevel");
    rejects(LoadProfileParams::mmpp(inf, msec(50), msec(20)),
            "LoadProfileParams::burstLevel");
    rejects(LoadProfileParams::mmpp(nan, msec(50), msec(20)),
            "LoadProfileParams::burstLevel");
    auto mmpp = LoadProfileParams::mmpp(4.0, msec(50), msec(20));
    mmpp.calmLevel = nan;
    rejects(mmpp, "LoadProfileParams::calmLevel");
    mmpp.calmLevel = -inf;
    rejects(mmpp, "LoadProfileParams::calmLevel");
    rejects(LoadProfileParams::mmpp(4.0, 0, msec(20)),
            "LoadProfileParams::meanCalm");
    rejects(LoadProfileParams::mmpp(4.0, msec(50), -msec(1)),
            "LoadProfileParams::meanBurst");
}

} // namespace
} // namespace loadgen
} // namespace tpv
