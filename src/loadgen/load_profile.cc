#include "loadgen/load_profile.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace tpv {
namespace loadgen {

namespace {

/** <cmath> M_PI is a POSIX extension; keep the build strict-mode clean. */
constexpr double kTwoPi = 6.28318530717958647692;

/** fatal() naming LoadProfileParams::@p field unless @p ok. */
template <typename T>
void
require(bool ok, const char *field, const char *rule, T value)
{
    if (!ok)
        fatal("LoadProfileParams::", field, " must be ", rule, ", got ", value);
}

/** fatal() unless @p level is a positive, finite multiplier. */
void
requireLevel(double level, const char *field)
{
    require(level > 0 && std::isfinite(level), field,
            "positive and finite", level);
}

} // namespace

const char *
toString(LoadProfileKind k)
{
    switch (k) {
      case LoadProfileKind::Constant:
        return "constant";
      case LoadProfileKind::Diurnal:
        return "diurnal";
      case LoadProfileKind::Step:
        return "step";
      case LoadProfileKind::Mmpp:
        return "mmpp";
    }
    return "?";
}

LoadProfileParams
LoadProfileParams::constant()
{
    return LoadProfileParams{};
}

LoadProfileParams
LoadProfileParams::diurnal(double amplitude, Time period, double phase)
{
    LoadProfileParams p;
    p.kind = LoadProfileKind::Diurnal;
    p.amplitude = amplitude;
    p.period = period;
    p.phase = phase;
    return p;
}

LoadProfileParams
LoadProfileParams::flashCrowd(double level, Time start, Time end)
{
    LoadProfileParams p;
    p.kind = LoadProfileKind::Step;
    p.stepLevel = level;
    p.stepStart = start;
    p.stepEnd = end;
    return p;
}

LoadProfileParams
LoadProfileParams::mmpp(double burstLevel, Time meanCalm, Time meanBurst)
{
    LoadProfileParams p;
    p.kind = LoadProfileKind::Mmpp;
    p.burstLevel = burstLevel;
    p.meanCalm = meanCalm;
    p.meanBurst = meanBurst;
    return p;
}

LoadProfile::LoadProfile(const LoadProfileParams &params, Time horizon,
                         Rng rng)
    : params_(params)
{
    switch (params_.kind) {
      case LoadProfileKind::Constant:
        break;
      case LoadProfileKind::Diurnal:
        require(params_.amplitude >= 0 && params_.amplitude <= 1,
                "amplitude", "in [0, 1]", params_.amplitude);
        require(std::isfinite(params_.phase), "phase", "finite",
                params_.phase);
        require(params_.period > 0, "period", "> 0", params_.period);
        maxMult_ = 1.0 + params_.amplitude;
        break;
      case LoadProfileKind::Step:
        requireLevel(params_.stepBase, "stepBase");
        requireLevel(params_.stepLevel, "stepLevel");
        require(params_.stepStart >= 0, "stepStart", ">= 0",
                params_.stepStart);
        require(params_.stepStart < params_.stepEnd, "stepStart",
                "< stepEnd", params_.stepStart);
        steps_ = {{0, params_.stepBase},
                  {params_.stepStart, params_.stepLevel},
                  {params_.stepEnd, params_.stepBase}};
        break;
      case LoadProfileKind::Mmpp: {
        requireLevel(params_.calmLevel, "calmLevel");
        requireLevel(params_.burstLevel, "burstLevel");
        require(params_.meanCalm > 0, "meanCalm", "> 0", params_.meanCalm);
        require(params_.meanBurst > 0, "meanBurst", "> 0",
                params_.meanBurst);
        // The classic MMPP(2) modulator on [0, horizon): calm and
        // burst dwells alternate, exponential with means meanCalm /
        // meanBurst, starting calm.
        const Time end = std::max<Time>(horizon, 1);
        bool burst = false;
        for (Time t = 0; t < end; burst = !burst) {
            steps_.push_back(
                {t, burst ? params_.burstLevel : params_.calmLevel});
            t += rng.exponentialTime(burst ? params_.meanBurst
                                           : params_.meanCalm);
        }
        break;
      }
    }
    if (!steps_.empty()) {
        maxMult_ = steps_.front().value;
        for (const Step &st : steps_)
            maxMult_ = std::max(maxMult_, st.value);
    }
}

double
LoadProfile::stepAt(Time t) const
{
    // First step starting after t; the one before it applies, and
    // times before the first step clamp to it.
    auto it = std::upper_bound(
        steps_.begin(), steps_.end(), t,
        [](Time lhs, const Step &st) { return lhs < st.start; });
    return it == steps_.begin() ? it->value : (it - 1)->value;
}

double
LoadProfile::multiplierAt(Time sinceStart) const
{
    switch (params_.kind) {
      case LoadProfileKind::Constant:
        return 1.0;
      case LoadProfileKind::Diurnal: {
        const double cycles =
            static_cast<double>(sinceStart) /
                static_cast<double>(params_.period) +
            params_.phase;
        const double m =
            1.0 + params_.amplitude * std::sin(kTwoPi * cycles);
        return std::max(0.0, m);
      }
      case LoadProfileKind::Step:
      case LoadProfileKind::Mmpp:
        return stepAt(sinceStart);
    }
    return 1.0;
}

double
LoadProfile::meanMultiplier(Time horizon) const
{
    TPV_ASSERT(horizon > 0, "profile mean needs a positive horizon");
    switch (params_.kind) {
      case LoadProfileKind::Constant:
        return 1.0;
      case LoadProfileKind::Diurnal: {
        // Midpoint rule; the integrand is smooth and cheap.
        const int steps = 4096;
        double acc = 0;
        for (int i = 0; i < steps; ++i) {
            const Time t = static_cast<Time>(
                (static_cast<double>(i) + 0.5) *
                static_cast<double>(horizon) / steps);
            acc += multiplierAt(t);
        }
        return acc / steps;
      }
      case LoadProfileKind::Step:
      case LoadProfileKind::Mmpp: {
        // Each step weighs by its overlap with [0, horizon); the last
        // runs to the horizon.
        double weighted = 0;
        for (std::size_t i = 0; i < steps_.size(); ++i) {
            const Time lo = steps_[i].start;
            const Time hi = std::min(horizon, i + 1 < steps_.size()
                                                  ? steps_[i + 1].start
                                                  : horizon);
            if (hi > lo)
                weighted += steps_[i].value * static_cast<double>(hi - lo);
        }
        return weighted / static_cast<double>(horizon);
      }
    }
    return 1.0;
}

Time
LoadProfile::nextArrival(Time from, Time baseGapMean, Rng &rng) const
{
    TPV_ASSERT(baseGapMean > 0, "arrival sampling needs a positive gap");
    if (params_.kind == LoadProfileKind::Constant)
        return from + rng.exponentialTime(baseGapMean);
    // Thinning: candidates at the peak rate, accepted in proportion
    // to the instantaneous multiplier. Zero-multiplier stretches
    // (e.g. an amplitude-1 diurnal trough) reject every candidate and
    // the candidate clock simply walks past them.
    const Time peakGapMean = std::max<Time>(
        1, static_cast<Time>(static_cast<double>(baseGapMean) / maxMult_));
    Time t = from;
    for (;;) {
        t += rng.exponentialTime(peakGapMean);
        if (rng.uniform01() * maxMult_ <= multiplierAt(t))
            return t;
    }
}

} // namespace loadgen
} // namespace tpv
