#include "svc/socialnet.hh"

#include <utility>

#include "sim/logging.hh"

namespace tpv {
namespace svc {

SocialNetworkApp::SocialNetworkApp(Simulator &sim,
                                   const hw::HwConfig &serverCfg,
                                   net::Link &replyLink,
                                   net::Endpoint &client, Rng rng,
                                   SocialNetworkParams params)
    : params_(std::move(params)),
      graph_(sim, replyLink, client, rng, params_.runVariability)
{
    TPV_ASSERT(!params_.stages.empty(), "Social Network needs stages");

    hw::Machine &machine = graph_.addMachine(serverCfg, "socialnet");
    for (const SocialStage &s : params_.stages) {
        TierParams t;
        t.name = s.name;
        t.workers = s.workers;
        t.firstCore = s.firstCore;
        t.work = lognormalWork(s.workMean, s.workSd);
        t.responseBytes = params_.responseBytes;
        stages_.push_back(&graph_.addTier(machine, std::move(t)));
    }
    loopback_ = &graph_.addLink(params_.loopback);

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
    graph_.setEntry(*stages_.front());
}

} // namespace svc
} // namespace tpv
