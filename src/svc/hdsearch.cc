#include "svc/hdsearch.hh"

#include <utility>

#include "sim/logging.hh"

namespace tpv {
namespace svc {

HdSearchCluster::HdSearchCluster(Simulator &sim,
                                 const hw::HwConfig &serverCfg,
                                 net::Link &replyLink,
                                 net::Endpoint &client, Rng rng,
                                 HdSearchParams params)
    : ServiceGraph(sim, replyLink, client, rng, params.runVariability),
      params_(params)
{
    if (params_.fanout < 1) {
        fatal("HdSearchParams::fanout must be >= 1, got ",
              params_.fanout);
    }
    if (params_.replicas < 1) {
        fatal("HdSearchParams::replicas must be >= 1, got ",
              params_.replicas);
    }
    requireNonNegative("HdSearchParams::midPreWork", params_.midPreWork);
    requireNonNegative("HdSearchParams::midMergeWork",
                       params_.midMergeWork);
    requireNonNegative("HdSearchParams::midPostWork", params_.midPostWork);

    hw::Machine &mid = addMachine(serverCfg, "hds-midtier");

    // The midtier's parse/merge/marshal costs are fixed protocol work;
    // only the leaf scans carry the run's environment factor (as in
    // the original hand-rolled cluster).
    TierParams midP;
    midP.name = "hds-midtier";
    midP.workers = params_.midtierWorkers;
    midP.work = fixedWork(params_.midPreWork);
    midP.envSensitive = false;
    midtier_ = &addTier(mid, std::move(midP));

    // One bucket machine per replica: a hedge to the backup replica
    // lands on an independent server with independent queues.
    TierParams bktP;
    bktP.name = "hds-bucket";
    bktP.workers = params_.bucketWorkers;
    bktP.work = lognormalWork(params_.bucketMean, params_.bucketSd,
                              "HdSearchParams::bucketMean",
                              "HdSearchParams::bucketSd");
    bktP.requestBytes = params_.subRequestBytes;
    bktP.responseBytes = params_.subResponseBytes;
    bktP.admission = params_.traffic.admission;
    bucket_ = &addReplicatedTier(serverCfg, params_.replicas,
                                 std::move(bktP));

    FanoutParams f;
    f.shards = params_.fanout;
    f.replicas = params_.replicas;
    f.hedgeDelay = params_.hedgeDelay;
    f.policy = params_.hedgePolicy;
    f.mergeWork = params_.midMergeWork;
    f.postWork = params_.midPostWork;
    f.link = params_.interLink;
    f.traffic = params_.traffic;
    fanout_ = &addFanout(
        *midtier_, *bucket_, f, [this](const net::Message &req) {
            net::Message resp = req;
            resp.isResponse = true;
            resp.bytes = params_.responseBytes;
            respond(resp);
        });

    midtier_->setHandler(
        [this](const net::Message &req, Time) { fanout_->scatter(req); });
    setEntry(*midtier_);
}

} // namespace svc
} // namespace tpv
