#include "svc/synthetic.hh"

namespace tpv {
namespace svc {

SyntheticServer::SyntheticServer(Simulator &sim, hw::Machine &machine,
                                 net::Link &replyLink,
                                 net::Endpoint &client, Rng rng,
                                 SyntheticParams params)
    : SingleTierServer(sim, machine, replyLink, client, params.workers,
                       rng, params.runVariability),
      params_(params),
      baseWork_(lognormalModel(params_.baseServiceTime,
                               params_.serviceTimeSd,
                               "SyntheticParams::baseServiceTime",
                               "SyntheticParams::serviceTimeSd"))
{
    requireNonNegative("SyntheticParams::addedDelay", params_.addedDelay);
}

Time
SyntheticServer::serviceWork(const net::Message &req, Rng &rng)
{
    (void)req;
    // Busy-wait extension: accounted as service time on the worker,
    // never as idle time (paper Section IV-B).
    return static_cast<Time>(rng.lognormal(baseWork_)) + params_.addedDelay;
}

std::uint32_t
SyntheticServer::responseBytes(const net::Message &req, Rng &rng)
{
    (void)req;
    (void)rng;
    return params_.responseBytes;
}

} // namespace svc
} // namespace tpv
