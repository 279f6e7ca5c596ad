#include "core/recommend.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stats/dependence.hh"
#include "stats/sample_size.hh"
#include "stats/shapiro_wilk.hh"

namespace tpv {
namespace core {

Recommendation
recommendClientConfig(const RecommendationInput &in)
{
    Recommendation rec;

    if (in.interarrival == loadgen::SendMode::BlockWait) {
        // Time-sensitive inter-arrival: tune the client for
        // performance so requests leave on schedule.
        rec.client = hw::HwConfig::clientHP();
        rec.rationale.emplace_back(
            "time-sensitive (block-wait) inter-arrival: tune the client "
            "for performance so hardware timing overheads (C-states, "
            "DVFS) do not distort the generated workload");
        if (in.targetKnown && in.targetUsesLowPower) {
            rec.representativenessCaveat = true;
            rec.rationale.emplace_back(
                "target environment enables low-power settings: the "
                "tuned client excludes sleep-state transition latency "
                "from the point of measurement, so end-to-end latency "
                "may be underestimated for provisioning decisions");
        }
        if (in.serviceLatency > usec(200)) {
            rec.rationale.emplace_back(
                "service latency well above client-side overheads: "
                "conclusions are unlikely to flip with client "
                "configuration, but absolute numbers still shift");
        }
        return rec;
    }

    // Time-insensitive inter-arrival: match the target environment.
    if (in.targetKnown) {
        rec.client = in.targetUsesLowPower ? hw::HwConfig::clientLP()
                                           : hw::HwConfig::clientHP();
        rec.rationale.emplace_back(
            "time-insensitive (busy-wait) inter-arrival: configure the "
            "client to match the target environment so measurements "
            "include representative overheads");
        return rec;
    }

    // Unknown target: explore the configuration space.
    rec.client = hw::HwConfig::clientHP();
    rec.explore = {hw::HwConfig::clientLP(), hw::HwConfig::clientHP()};
    rec.rationale.emplace_back(
        "target configuration unknown: evaluate the technique under a "
        "space exploration of client configurations (homogeneous and "
        "heterogeneous client/server pairs)");
    return rec;
}

IterationAdvice
recommendIterations(const std::vector<double> &pilotSamples,
                    double errorPercent)
{
    TPV_ASSERT(pilotSamples.size() >= 10,
               "need at least 10 pilot samples to size an experiment");

    IterationAdvice advice;
    const auto sw = stats::shapiroWilk(pilotSamples);
    advice.shapiroP = sw.pValue;
    advice.lag1Autocorrelation = stats::autocorrelation(pilotSamples, 1);
    advice.looksIid = stats::looksIndependent(
        pilotSamples, std::min<std::size_t>(5, pilotSamples.size() - 2));
    if (!advice.looksIid) {
        warn("pilot samples look autocorrelated (lag-1 r = ",
             advice.lag1Autocorrelation,
             "); repetition estimates assume iid samples");
    }

    if (sw.normalAt(0.05)) {
        advice.method = IterationMethod::Parametric;
        advice.iterations =
            stats::jainIterations(pilotSamples, errorPercent);
        return advice;
    }

    advice.method = IterationMethod::Confirm;
    stats::ConfirmConfig cc;
    cc.targetError = errorPercent / 100.0;
    const auto cr = stats::confirmIterations(pilotSamples, cc);
    advice.iterations = cr.iterations;
    advice.saturated = cr.saturated;
    return advice;
}

} // namespace core
} // namespace tpv
