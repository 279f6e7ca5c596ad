/**
 * @file
 * Non-stationary offered-load profiles.
 *
 * Real services rarely see the stationary arrival processes the
 * paper's load points assume: production traffic has diurnal swings,
 * flash crowds, and bursty on/off phases. A LoadProfile modulates a
 * generator's base rate with a time-varying multiplier so the risk
 * taxonomy of Table III can be evaluated under time-varying load:
 *
 *  - Diurnal: a sinusoid around the base rate (a scaled-down day);
 *  - Step: a flash crowd — the rate jumps to a higher level for a
 *    fixed interval, then falls back;
 *  - Mmpp: a two-state Markov-modulated Poisson process alternating
 *    exponentially-dwelling calm and burst phases (the classic model
 *    for bursty datacenter arrivals).
 *
 * The generator's Poisson arrivals under a profile are sampled
 * exactly via thinning (Lewis & Shedler): candidate gaps are
 * drawn at the profile's peak rate and accepted with probability
 * multiplier(t)/peak, yielding a non-homogeneous Poisson process with
 * intensity base * multiplier(t).
 */

#ifndef TPV_LOADGEN_LOAD_PROFILE_HH
#define TPV_LOADGEN_LOAD_PROFILE_HH

#include <vector>

#include "sim/random.hh"
#include "sim/time.hh"

namespace tpv {
namespace loadgen {

/** Shape of the offered-load schedule. */
enum class LoadProfileKind { Constant, Diurnal, Step, Mmpp };

/** @return "constant" / "diurnal" / "step" / "mmpp". */
const char *toString(LoadProfileKind k);

/**
 * Declarative profile description; lives in OpenLoopParams so a
 * profile is part of an ExperimentConfig and copies freely. Times are
 * relative to generation start (t = 0 when the generator starts, i.e.
 * the beginning of warmup).
 */
struct LoadProfileParams
{
    LoadProfileKind kind = LoadProfileKind::Constant;

    /** Diurnal: multiplier = 1 + amplitude*sin(2pi*(t/period + phase)).
     *  amplitude must be in [0, 1] so the rate stays non-negative. */
    double amplitude = 0.5;
    /** Diurnal period (a scaled-down "day"; > 0). */
    Time period = seconds(1);
    /** Diurnal phase offset, as a fraction of a period (finite). */
    double phase = 0.0;

    /** Step: multiplier outside the crowd interval (> 0, finite). */
    double stepBase = 1.0;
    /** Step: multiplier during [stepStart, stepEnd) (> 0, finite). */
    double stepLevel = 3.0;
    /** Step: 0 <= stepStart < stepEnd. */
    Time stepStart = msec(300);
    Time stepEnd = msec(700);

    /** Mmpp: multiplier in the calm state (> 0, finite). */
    double calmLevel = 1.0;
    /** Mmpp: multiplier in the burst state (> 0, finite). */
    double burstLevel = 4.0;
    /** Mmpp: mean exponential dwell in the calm state (> 0). */
    Time meanCalm = msec(200);
    /** Mmpp: mean exponential dwell in the burst state (> 0). */
    Time meanBurst = msec(50);

    /** A stationary profile (the default; no rate modulation). */
    static LoadProfileParams constant();

    /** Sinusoidal rate swing of @p amplitude around the base rate. */
    static LoadProfileParams diurnal(double amplitude, Time period,
                                     double phase = 0.0);

    /** Flash crowd: rate x @p level during [@p start, @p end). */
    static LoadProfileParams flashCrowd(double level, Time start,
                                        Time end);

    /** Bursty on/off load: calm at 1x, bursts at @p burstLevel x. */
    static LoadProfileParams mmpp(double burstLevel, Time meanCalm,
                                  Time meanBurst);
};

/**
 * A materialised profile: the multiplier as a queryable function of
 * time-since-start. Stochastic shapes (Mmpp) sample their trajectory
 * at construction from the provided Rng, so the whole schedule is
 * determined by the run seed and is immutable (thread-safe reads)
 * afterwards.
 */
class LoadProfile
{
  public:
    /**
     * @param params  shape description (validated here: fatal()
     *                naming the field on a value its kind rejects).
     * @param horizon materialisation horizon for sampled shapes —
     *                queries past it clamp to the final level.
     * @param rng     trajectory randomness (Mmpp only).
     */
    LoadProfile(const LoadProfileParams &params, Time horizon, Rng rng);

    LoadProfileKind kind() const { return params_.kind; }

    /** Rate multiplier at @p sinceStart (>= 0; clamped outside [0,
     *  horizon)). */
    double multiplierAt(Time sinceStart) const;

    /** Peak multiplier (the thinning envelope). */
    double maxMultiplier() const { return maxMult_; }

    /** Time-weighted mean multiplier over [0, horizon). */
    double meanMultiplier(Time horizon) const;

    /**
     * Next arrival of a non-homogeneous Poisson process with base
     * mean gap @p baseGapMean (the gap at multiplier 1), strictly
     * after @p from. Exact via thinning.
     */
    Time nextArrival(Time from, Time baseGapMean, Rng &rng) const;

  private:
    /** The step function takes @c value from @c start onwards. */
    struct Step
    {
        Time start = 0;
        double value = 1.0;
    };

    /** Step/Mmpp multiplier at @p t: the last step starting at or
     *  before @p t (the first step before it). */
    double stepAt(Time t) const;

    LoadProfileParams params_;
    /** Step/Mmpp trajectory, sorted by start, the first at 0; empty
     *  otherwise. */
    std::vector<Step> steps_;
    double maxMult_ = 1.0;
};

} // namespace loadgen
} // namespace tpv

#endif // TPV_LOADGEN_LOAD_PROFILE_HH
