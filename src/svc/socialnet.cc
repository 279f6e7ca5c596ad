#include "svc/socialnet.hh"

#include <string>
#include <utility>

#include "sim/logging.hh"

namespace tpv {
namespace svc {

SocialNetworkApp::SocialNetworkApp(Simulator &sim,
                                   const hw::HwConfig &serverCfg,
                                   net::Link &replyLink,
                                   net::Endpoint &client, Rng rng,
                                   SocialNetworkParams params)
    : ServiceGraph(sim, replyLink, client, rng, params.runVariability),
      params_(std::move(params))
{
    if (params_.stages.empty())
        fatal("SocialNetworkParams::stages must not be empty");

    hw::Machine &machine = addMachine(serverCfg, "socialnet");
    for (const SocialStage &s : params_.stages) {
        TierParams t;
        t.name = s.name;
        t.workers = s.workers;
        t.firstCore = s.firstCore;
        const std::string stage = " of stage '" + s.name + "'";
        t.work = lognormalWork(s.workMean, s.workSd,
                               "SocialStage::workMean" + stage,
                               "SocialStage::workSd" + stage);
        t.responseBytes = params_.responseBytes;
        stages_.push_back(&addTier(machine, std::move(t)));
    }
    loopback_ = &addLink(params_.loopback);

    // Chain the stages over the loopback link; the last stage keeps
    // the default handler and replies to the client via the graph.
    for (std::size_t i = 0; i + 1 < stages_.size(); ++i) {
        Tier *next = stages_[i + 1];
        stages_[i]->setHandler(
            [this, next](const net::Message &msg, Time) {
                net::Message hop = msg;
                hop.bytes = params_.interBytes;
                loopback_->send(hop, *next);
            });
    }
    setEntry(*stages_.front());
}

} // namespace svc
} // namespace tpv
