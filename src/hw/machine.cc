#include "hw/machine.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace tpv {
namespace hw {

double
Machine::drawExitScale(const HwConfig &cfg, std::uint64_t seed)
{
    if (seed == 0 || cfg.exitLatencyJitter <= 0)
        return 1.0;
    Rng rng(seed);
    // Symmetric board-to-board variation: runs whose measurements are
    // dominated by wake latencies (the LP client at low load) then
    // show large but *normally distributed* run-to-run variance —
    // matching the paper's Figure 8, where the LP scenarios pass
    // Shapiro-Wilk while needing the most repetitions (Table IV).
    return std::max(0.3, rng.normal(1.0, cfg.exitLatencyJitter));
}

Machine::Machine(Simulator &sim, const HwConfig &cfg, std::string name,
                 std::uint64_t seed)
    : sim_(sim), cfg_(cfg), exitScale_(drawExitScale(cfg, seed)),
      table_(cfg, exitScale_), name_(std::move(name))
{
    cfg_.validate();
    for (int i = 0; i < cfg_.cores; ++i)
        cores_.push_back(std::make_unique<Core>(sim, *this, cfg_, table_, i));
    // IRQ delivery looks a thread up on every message; a flat table
    // in sibling order makes that lookup one load.
    for (int sibling = 0; sibling < (cfg_.smt ? 2 : 1); ++sibling) {
        for (auto &c : cores_)
            threads_.push_back(&c->thread(sibling));
    }
    // Cores are constructed notionally active; count them, then let
    // each settle into its idle state and start its tick source.
    activeCores_ = cfg_.cores;
    for (auto &c : cores_) {
        c->startTickLoop();
        c->maybeEnterIdle();
    }
}

Core &
Machine::core(std::size_t i)
{
    TPV_ASSERT(i < cores_.size(), "core index out of range");
    return *cores_[i];
}

HwThread &
Machine::thread(std::size_t globalIdx)
{
    TPV_ASSERT(globalIdx < threads_.size(), "thread index out of range: ",
               globalIdx);
    return *threads_[globalIdx];
}

void
Machine::deliverIrqLate(std::size_t threadIdx, Time irqWork, Time penalty,
                        HwThread::Callback &&handler)
{
    HwThread &t = thread(threadIdx);
    ++uncoreWakePenalties_;
    // The deferred submit captures the full handler (beyond the event
    // queue's inline budget); uncore wakes are rare — I/O hitting a
    // fully idle package — so boxing the capture is fine here.
    sim_.schedule(penalty,
                  heapWrap([&t, irqWork, handler = std::move(handler)]()
                               mutable { t.submit(irqWork, std::move(handler)); }));
}

Time
Machine::uncorePenalty()
{
    const Time now = sim_.now();
    Time penalty = 0;
    if (cfg_.uncoreDynamic && activeCores_ == 0 &&
        now - lastPackageActivity_ > cfg_.uncoreIdleThreshold) {
        penalty = cfg_.uncoreWake;
    }
    lastPackageActivity_ = now;
    return penalty;
}

void
Machine::onCoreActiveChanged(int delta)
{
    activeCores_ += delta;
    TPV_ASSERT(activeCores_ >= 0 &&
                   activeCores_ <= static_cast<int>(cores_.size()),
               "active core count out of range: ", activeCores_);
    if (delta > 0)
        lastPackageActivity_ = sim_.now();
    // A domain that follows the turbo bin always sits at the current
    // bin (see FreqDomain::onTurboBinChanged), so the cores need
    // visiting only when the bin itself moves, and then each is handed
    // the bin computed here. The first call finds the sentinel and
    // always pushes.
    if (!FreqDomain::followsTurboBin(cfg_))
        return;
    const double bin = FreqDomain::turboBinGhz(cfg_, activeCores_);
    if (bin == pushedBinGhz_)
        return;
    pushedBinGhz_ = bin;
    for (auto &c : cores_)
        c->freq().onTurboBinChanged(bin);
}

MachineStats
Machine::stats() const
{
    MachineStats s;
    for (const auto &c : cores_) {
        s.wakes += c->stats().wakes;
        s.exitLatencyPaid += c->stats().exitLatencyPaid;
        s.freqTransitions += c->freq().transitions();
        s.energyJoules += c->energyJoules();
    }
    s.irqsDelivered = irqsDelivered_;
    s.uncoreWakePenalties = uncoreWakePenalties_;
    return s;
}

} // namespace hw
} // namespace tpv
