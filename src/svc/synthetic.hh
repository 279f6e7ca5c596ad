/**
 * @file
 * The paper's synthetic workload (Section IV-B): a memcached-like
 * service whose processing time is extended by a tunable busy-wait
 * delay, used for the sensitivity analysis of Figure 7.
 */

#ifndef TPV_SVC_SYNTHETIC_HH
#define TPV_SVC_SYNTHETIC_HH

#include "svc/service.hh"

namespace tpv {
namespace svc {

/** Tunables for the synthetic service. */
struct SyntheticParams
{
    /** Paper: 10 worker threads pinned on a single socket. */
    int workers = 10;
    /** Base processing time before the added delay. */
    Time baseServiceTime = usec(10);
    /** Lognormal sd of the base time (>= 0; 0 = fixed). */
    Time serviceTimeSd = usec(2);
    /**
     * The paper's input parameter: how long the processing of a
     * request is extended. Implemented as busy-wait on the worker
     * (it occupies the core, it is service time, not sleep time).
     */
    Time addedDelay = 0;
    std::uint32_t responseBytes = 64;
    /** Per-run environment factor sd on service times. */
    double runVariability = 0.025;
};

/**
 * Synthetic tunable-latency service. At addedDelay = 0 it behaves
 * like a fixed-size-value memcached; each +100 us of delay shifts the
 * whole latency distribution right by ~100 us (Figure 7c validates
 * the linearity).
 */
class SyntheticServer : public SingleTierServer
{
  public:
    SyntheticServer(Simulator &sim, hw::Machine &machine,
                    net::Link &replyLink, net::Endpoint &client, Rng rng,
                    SyntheticParams params = {});

    const SyntheticParams &params() const { return params_; }

  protected:
    Time serviceWork(const net::Message &req, Rng &rng) override;
    std::uint32_t responseBytes(const net::Message &req,
                                Rng &rng) override;

  private:
    SyntheticParams params_;
    /** Lognormal(baseServiceTime, serviceTimeSd). */
    Rng::Lognormal baseWork_;
};

} // namespace svc
} // namespace tpv

#endif // TPV_SVC_SYNTHETIC_HH
