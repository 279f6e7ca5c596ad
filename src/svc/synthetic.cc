#include "svc/synthetic.hh"

#include <utility>

namespace tpv {
namespace svc {

SyntheticServer::SyntheticServer(Simulator &sim, hw::Machine &machine,
                                 net::Link &replyLink,
                                 net::Endpoint &client, Rng rng,
                                 SyntheticParams params)
    : ServiceGraph(sim, replyLink, client, rng, params.runVariability),
      params_(params),
      baseWork_(lognormalModel(params_.baseServiceTime,
                               params_.serviceTimeSd,
                               "SyntheticParams::baseServiceTime",
                               "SyntheticParams::serviceTimeSd"))
{
    requireNonNegative("SyntheticParams::addedDelay", params_.addedDelay);
    TierParams p = serverTier(params_.workers);
    // Busy-wait extension: accounted as service time on the worker,
    // never as idle time (paper Section IV-B).
    p.work = [this](const net::Message &, Rng &r) {
        return static_cast<Time>(r.lognormal(baseWork_)) +
               params_.addedDelay;
    };
    p.responseBytes = params_.responseBytes;
    setEntry(addTier(machine, std::move(p)));
}

} // namespace svc
} // namespace tpv
