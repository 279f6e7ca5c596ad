#include "hw/dvfs.hh"

#include <algorithm>

#include "hw/core.hh"
#include "sim/logging.hh"

namespace tpv {
namespace hw {

FreqDomain::FreqDomain(Simulator &sim, const HwConfig &cfg,
                       const int &activeCores, Core *owner)
    : sim_(sim), cfg_(&cfg), activeCores_(&activeCores), owner_(owner)
{
    switch (cfg_->governor) {
      case FreqGovernor::Performance:
        currentGhz_ = maxAvailableGhz();
        break;
      case FreqGovernor::Powersave:
        currentGhz_ = cfg_->minGhz;
        break;
      case FreqGovernor::Userspace:
        currentGhz_ = cfg_->nominalGhz;
        break;
    }
}

double
FreqDomain::turboBinGhz(const HwConfig &cfg, int activeCores)
{
    if (!cfg.turbo)
        return cfg.nominalGhz;
    // Active-core turbo bins: few busy cores get full turbo, half-busy
    // machines an intermediate bin, saturated machines nominal.
    const int total = cfg.cores;
    if (activeCores * 4 <= total)
        return cfg.turboGhz;
    if (activeCores * 2 <= total)
        return 0.5 * (cfg.turboGhz + cfg.nominalGhz);
    return cfg.nominalGhz;
}

double
FreqDomain::maxAvailableGhz() const
{
    return turboBinGhz(*cfg_, *activeCores_);
}

void
FreqDomain::setFreq(double ghz)
{
    if (ghz == currentGhz_)
        return;
    if (owner_ != nullptr)
        owner_->accrueEnergy();
    currentGhz_ = ghz;
    ++transitions_;
    if (owner_ != nullptr)
        owner_->refreshSpeeds();
}

double
FreqDomain::rampTargetGhz() const
{
    if (cfg_->governor == FreqGovernor::Performance)
        return maxAvailableGhz();
    return std::min(maxAvailableGhz(), cfg_->nominalGhz);
}

void
FreqDomain::scheduleRamp(Time delay)
{
    if (sim_.pending(rampEv_))
        return;
    rampEv_ = sim_.schedule(delay, [this] { setFreq(rampTargetGhz()); });
}

double
FreqDomain::utilFreqGhz() const
{
    return cfg_->minGhz + util_ * (rampTargetGhz() - cfg_->minGhz);
}

void
FreqDomain::onCoreWake(Time idleDuration)
{
    switch (cfg_->governor) {
      case FreqGovernor::Performance:
        setFreq(maxAvailableGhz());
        return;
      case FreqGovernor::Userspace:
        return;
      case FreqGovernor::Powersave: {
        // Fold the finished busy/idle cycle into the busy-fraction
        // EWMA (intel_pstate's per-sample utilisation tracking).
        const Time cycle = lastBusy_ + idleDuration;
        if (cycle > 0) {
            const double inst = static_cast<double>(lastBusy_) /
                                static_cast<double>(cycle);
            util_ = 0.25 * inst + 0.75 * util_;
        }
        setFreq(utilFreqGhz());
        // A core that *stays* busy earns the ramp target after the
        // governor's next utilisation sample plus the hardware
        // transition.
        if (currentGhz_ < rampTargetGhz())
            scheduleRamp(cfg_->psSamplePeriod + cfg_->dvfsTransition);
        return;
      }
    }
}

void
FreqDomain::onCoreIdle(Time busyDuration)
{
    lastBusy_ = busyDuration;
    if (sim_.pending(rampEv_))
        sim_.cancel(rampEv_);
}

bool
FreqDomain::followsTurboBin(const HwConfig &cfg)
{
    return cfg.turbo && cfg.governor == FreqGovernor::Performance;
}

} // namespace hw
} // namespace tpv
