/**
 * @file
 * Social Network application model (paper Section IV-B):
 * DeathStarBench's Social Network deployed on a single node with
 * Docker Swarm, driven with read-user-timeline requests. A request
 * traverses a chain of services (frontend -> user-timeline -> three
 * post-storage reads) on shared core pools, giving the 2-20 ms
 * end-to-end latencies of Figure 6 — far above any client-side
 * hardware overhead.
 *
 * Each stage is a Tier of one shared-machine ServiceGraph; stage hops
 * travel the Docker bridge/loopback link directly to the next tier's
 * endpoint, so no stage index has to ride in the message.
 */

#ifndef TPV_SVC_SOCIALNET_HH
#define TPV_SVC_SOCIALNET_HH

#include <string>
#include <vector>

#include "hw/machine.hh"
#include "net/link.hh"
#include "net/message.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "svc/topology.hh"

namespace tpv {
namespace svc {

/** One microservice stage of the DAG. */
struct SocialStage
{
    std::string name;
    /** Mean / sd of the stage's CPU work. */
    Time workMean;
    Time workSd;
    /** Core pool [firstCore, firstCore+workers). */
    int firstCore;
    int workers;
};

/** Tunables for the Social Network model. */
struct SocialNetworkParams
{
    /**
     * read-user-timeline path: nginx frontend, the user-timeline
     * service, and three sequential post-storage reads sharing the
     * storage pool. Stage times are lognormal with cv = 1, which is
     * what pushes the p99 to the 10-20 ms range near saturation.
     */
    std::vector<SocialStage> stages = {
        {"frontend", usec(200), usec(200), 0, 2},
        {"user-timeline", usec(600), usec(600), 2, 2},
        {"post-storage-1", usec(450), usec(450), 4, 3},
        {"post-storage-2", usec(450), usec(450), 4, 3},
        {"post-storage-3", usec(450), usec(450), 4, 3},
    };
    /** Docker bridge / loopback hop between services. */
    net::Link::Params loopback{usec(15), 0.15, 10.0};
    std::uint32_t interBytes = 512;
    std::uint32_t responseBytes = 4096;
    /** Per-run environment factor sd on service times. */
    double runVariability = 0.015;
};

/**
 * The single-node Social Network deployment: a chain of tiers
 * partitioning one machine's cores, wired stage-to-stage over the
 * loopback link.
 */
class SocialNetworkApp : public ServiceGraph
{
  public:
    /** Client requests enter at the frontend (stage 0). */
    SocialNetworkApp(Simulator &sim, const hw::HwConfig &serverCfg,
                     net::Link &replyLink, net::Endpoint &client, Rng rng,
                     SocialNetworkParams params = {});

    const SocialNetworkParams &params() const { return params_; }
    hw::Machine &machine() { return stages_.front()->machine(); }

  private:
    SocialNetworkParams params_;
    std::vector<Tier *> stages_;
    net::Link *loopback_;
};

} // namespace svc
} // namespace tpv

#endif // TPV_SVC_SOCIALNET_HH
