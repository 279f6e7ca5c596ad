/**
 * @file
 * Deterministic random-number generation for the simulator.
 *
 * We ship our own xoshiro256** generator instead of std::mt19937 so
 * that (i) streams are cheap to fork per component, and (ii) results
 * are bit-identical across standard-library implementations — the
 * repetition-count experiments (Table IV) depend on exact
 * reproducibility of the sampled latency populations.
 */

#ifndef TPV_SIM_RANDOM_HH
#define TPV_SIM_RANDOM_HH

#include <cstdint>
#include <vector>

#include "sim/time.hh"

namespace tpv {

/**
 * xoshiro256** 1.0 (Blackman & Vigna), seeded through SplitMix64.
 * Passes BigCrush; period 2^256 - 1.
 */
class Rng
{
  public:
    /** Seed the stream. Equal seeds give bit-identical streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t u64();

    /** Uniform double in [0, 1). */
    double uniform01();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw: true with probability @p p. */
    bool chance(double p);

    /** Exponential with the given mean (= 1/rate). */
    double exponential(double mean);

    /** Standard normal via Box-Muller (cached spare value). */
    double standardNormal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double sd);

    /**
     * Parameters of a lognormal given by the mean and standard
     * deviation of the *resulting variable* (not of the underlying
     * normal) — the natural way to say "service time ~10us, sd ~3us".
     * Build one per draw site when the mean and sd are fixed, so each
     * draw skips the logs and square root.
     */
    struct Lognormal
    {
        /** The constant 1: Lognormal(1, 0). */
        Lognormal() : fixed(1) {}

        /**
         * sd <= 0 gives the constant @p mean, drawn without consuming
         * the stream.
         * @pre mean > 0
         */
        Lognormal(double mean, double sd);

        /** Mean and sd of the underlying normal. */
        double mu = 0;
        double sigma = 0;
        /** The constant value when sd <= 0, else 0. */
        double fixed = 0;
    };

    /** Lognormal draw: exp(mu + sigma * standardNormal()). */
    double lognormal(const Lognormal &p);

    /** One-off lognormal draw: lognormal(Lognormal(mean, sd)). */
    double lognormalMeanSd(double mean, double sd);

    /** Classic Pareto: scale * U^(-1/shape). */
    double pareto(double scale, double shape);

    /**
     * Generalized Pareto with location mu, scale sigma, shape xi —
     * used by the Facebook ETC value-size model (Atikoglu et al.).
     */
    double generalizedPareto(double mu, double sigma, double xi);

    /**
     * Generalized extreme value with location mu, scale sigma, shape
     * xi — the ETC key-size model mutilate ships.
     */
    double generalizedExtremeValue(double mu, double sigma, double xi);

    /**
     * Draw an index from a discrete distribution given non-negative
     * weights (need not be normalised).
     */
    std::size_t discrete(const std::vector<double> &weights);

    /**
     * Derive an independent child stream. Forking is deterministic:
     * the same parent state yields the same children in order.
     */
    Rng fork();

    /** Draw an exponential inter-arrival duration with mean @p mean. */
    Time exponentialTime(Time mean);

  private:
    std::uint64_t s_[4];
    double spareNormal_ = 0.0;
    bool hasSpare_ = false;
};

} // namespace tpv

#endif // TPV_SIM_RANDOM_HH
