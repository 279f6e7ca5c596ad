/**
 * @file
 * Turbo-bin invariant: a Performance core always sits at the machine's
 * current active-core turbo bin. Machine::onCoreActiveChanged() visits
 * the cores only when the bin moves, which is exact only while that
 * invariant holds, so a wide machine is driven through a seeded random
 * mix of submits, timer sleeps and idle gaps and checked after every
 * simulated instant, then compared with the counters the ungated
 * refresh loop (visit every core on every active-count change)
 * produced on the same drive.
 */

#include "hw/machine.hh"
#include "sim/random.hh"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace tpv {
namespace hw {
namespace {

struct Drive
{
    MachineStats stats;
    std::set<double> binsSeen;
    std::uint64_t instants = 0;
    /** Instants whose bin differs from the previous instant's: a
     *  lower bound on the bin moves. */
    std::uint64_t binChanges = 0;
};

/** How much of the machine a drive reads between instants. */
enum class Reads
{
    /** Nothing until the final MachineStats. */
    None,
    /** Every core's freq() after every instant. */
    Freq,
    /** freq() as above, plus a full stats() read every instant. */
    FreqAndStats,
};

Drive
drive(const HwConfig &cfg, std::uint64_t seed, Reads reads = Reads::Freq)
{
    Simulator sim;
    Machine m(sim, cfg, "client", seed);
    Rng rng(seed);
    const auto threads = static_cast<std::int64_t>(m.threadCount());

    // Bursts of 1-60 actions within a few microseconds, so the busy
    // core count sweeps across all three bins, separated by idle gaps
    // long enough for the package to drain.
    Time at = 0;
    for (int burst = 0; burst < 300; ++burst) {
        at += rng.uniformInt(0, usec(300));
        const Time span = rng.uniformInt(usec(1), usec(20));
        const int actions = static_cast<int>(rng.uniformInt(1, 60));
        for (int a = 0; a < actions; ++a) {
            const Time when = at + rng.uniformInt(0, span);
            const auto thr =
                static_cast<std::size_t>(rng.uniformInt(0, threads - 1));
            const Time work = rng.uniformInt(usec(1), usec(40));
            if (rng.chance(0.7)) {
                sim.at(when, [&m, thr, work] {
                    m.thread(thr).submit(work, nullptr);
                });
            } else {
                const Time wake = when + rng.uniformInt(usec(5), usec(200));
                sim.at(when, [&m, thr, wake, work] {
                    m.thread(thr).sleepUntil(
                        wake, [work] { return work; }, nullptr);
                });
            }
        }
        at += span;
    }

    Drive d;
    const Time horizon = at + msec(1);
    double lastBin = 0;
    while (sim.pendingEvents() > 0 && sim.queue().nextTime() <= horizon) {
        sim.runUntil(sim.queue().nextTime());
        ++d.instants;
        if (reads == Reads::None)
            continue;
        if (reads == Reads::FreqAndStats)
            (void)m.stats();
        for (std::size_t c = 0; c < m.coreCount(); ++c) {
            const FreqDomain &f = m.core(c).freq();
            if (f.currentGhz() != f.maxAvailableGhz()) {
                ADD_FAILURE() << "core " << c << " at " << f.currentGhz()
                              << " GHz, bin " << f.maxAvailableGhz()
                              << " GHz, t=" << sim.now();
                return d;
            }
        }
        const double bin = m.core(0).freq().maxAvailableGhz();
        d.binsSeen.insert(bin);
        d.binChanges += bin != lastBin;
        lastBin = bin;
    }
    d.stats = m.stats();
    return d;
}

/**
 * One drive and the counters it must reproduce. gtest appends a byte
 * dump of the param to each case name, so the struct has no padding
 * (padding holds whatever the stack held, and the names would change
 * from build to build): the machine knobs fill the first eight bytes.
 */
struct Golden
{
    bool idlePoll;
    bool uncoreDynamic;
    bool turbo;
    bool smt;
    int cores;
    std::uint64_t seed;
    std::uint64_t freqTransitions;
    double energyJoules;
};
static_assert(sizeof(Golden) == 4 * sizeof(bool) + sizeof(int) +
                                    2 * sizeof(std::uint64_t) +
                                    sizeof(double),
              "Golden must have no padding bytes");

/** The paper's HP client widened to the 40 generator cores the
 *  memcached study gives it; idlePoll off adds C-state sleeps, so
 *  wake-time frequency selection (onCoreWake) is exercised too. */
HwConfig
wideHp(const Golden &g)
{
    HwConfig cfg = HwConfig::clientHP();
    cfg.cores = g.cores;
    cfg.smt = g.smt;
    cfg.turbo = g.turbo;
    cfg.uncoreDynamic = g.uncoreDynamic;
    cfg.idlePoll = g.idlePoll;
    if (!g.idlePoll)
        cfg.cstates = {CState::C0, CState::C1, CState::C1E, CState::C6};
    return cfg;
}

/** A golden on the HP client's knobs (turbo and SMT on, fixed uncore)
 *  at 40 cores. */
Golden
hpGolden(bool idlePoll, std::uint64_t seed, std::uint64_t freqTransitions,
         double energyJoules)
{
    return Golden{idlePoll, false, true, true, 40,
                  seed, freqTransitions, energyJoules};
}

class TurboBin : public ::testing::TestWithParam<Golden>
{
};

TEST_P(TurboBin, PerformanceCoresSitAtCurrentBin)
{
    const Golden g = GetParam();
    const Drive d = drive(wideHp(g), g.seed);
    ASSERT_FALSE(HasFailure());
    // The drive is only a test if the bin actually moved.
    EXPECT_EQ(d.binsSeen.size(), 3u);
    EXPECT_GT(d.instants, 10000u);
    // Same simulation as the ungated loop: the goldens below were
    // produced by refreshing every core on every active-count change.
    EXPECT_EQ(d.stats.freqTransitions, g.freqTransitions);
    EXPECT_EQ(d.stats.energyJoules, g.energyJoules)
        << std::hexfloat << d.stats.energyJoules;
}

TEST_P(TurboBin, ReadsMidRunChangeNoBits)
{
    // Reading energy bills nothing (Core::energyJoules()), so a twin
    // read through stats() and freq() after every instant, across
    // hundreds of bin moves, must end with the same counters as a
    // machine read only at the end, and both with the ungated golden.
    const Golden g = GetParam();
    const Drive unread = drive(wideHp(g), g.seed, Reads::None);
    const Drive read = drive(wideHp(g), g.seed, Reads::FreqAndStats);
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(read.binChanges, 2u * 256u)
        << "the drive moved the bin too seldom";
    EXPECT_EQ(unread.instants, read.instants);
    for (const Drive *d : {&unread, &read}) {
        EXPECT_EQ(d->stats.freqTransitions, g.freqTransitions);
        EXPECT_EQ(d->stats.energyJoules, g.energyJoules)
            << std::hexfloat << d->stats.energyJoules;
        EXPECT_EQ(d->stats.wakes, read.stats.wakes);
        EXPECT_EQ(d->stats.exitLatencyPaid, read.stats.exitLatencyPaid);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, TurboBin,
    ::testing::Values(hpGolden(true, 11, 32600, 0x1.55d74f9dd26a5p+2),
                      hpGolden(false, 11, 33480, 0x1.685f59f884477p+1),
                      hpGolden(true, 29, 31720, 0x1.503f3912a5376p+2),
                      hpGolden(false, 29, 31880, 0x1.5f4f349403939p+1)),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.idlePoll ? "poll" : "cstates") +
               "_seed" + std::to_string(info.param.seed);
    });

} // namespace
} // namespace hw
} // namespace tpv
