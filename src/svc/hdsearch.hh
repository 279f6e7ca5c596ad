/**
 * @file
 * HDSearch service model (paper Section IV-B): MicroSuite's image
 * similarity search, structured as a three-tier service — client,
 * midtier, and bucket (leaf) servers — communicating over RPC. The
 * midtier fans a query out to LSH bucket shards and aggregates the
 * near-neighbour results; end-to-end latency is in the
 * hundreds-of-microseconds to millisecond range, ~10x-100x
 * Memcached's, which is what makes it insensitive to client-side
 * configuration (Figure 4).
 *
 * The cluster is wired on the svc/topology layer: a midtier Tier, a
 * bucket Tier, and a Fanout between them, so shard count, replica
 * count and hedged requests are all plain parameters.
 */

#ifndef TPV_SVC_HDSEARCH_HH
#define TPV_SVC_HDSEARCH_HH

#include <cstdint>

#include "hw/machine.hh"
#include "net/link.hh"
#include "net/message.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "svc/topology.hh"

namespace tpv {
namespace svc {

/** Tunables for the HDSearch cluster. */
struct HdSearchParams
{
    /** Midtier request-handler threads. */
    int midtierWorkers = 8;
    /** Bucket-server threads (the LSH shard scan pool). */
    int bucketWorkers = 8;
    /** Shards each query fans out to (unbounded). */
    int fanout = 4;
    /** Replicas backing each shard; hedges go to the next replica. */
    int replicas = 1;
    /** Hedge a shard's scan after this delay (0 = no hedging). */
    Time hedgeDelay = 0;
    /** Hedging policy; Auto = Fixed when hedgeDelay > 0 else None. */
    HedgePolicy hedgePolicy = HedgePolicy::Auto;
    /** Midtier work before the fan-out (parse, LSH hash). */
    Time midPreWork = usec(40);
    /** Midtier work per returned shard result (merge). */
    Time midMergeWork = usec(8);
    /** Midtier work after the last shard result (top-k, marshal). */
    Time midPostWork = usec(30);
    /** Leaf scan time per shard. */
    Time bucketMean = usec(300);
    Time bucketSd = usec(90);
    /** Intra-cluster hop (midtier <-> bucket). */
    net::Link::Params interLink{};
    std::uint32_t subRequestBytes = 256;
    std::uint32_t subResponseBytes = 1024;
    std::uint32_t responseBytes = 2048;
    /** Per-run environment factor sd on service times. */
    double runVariability = 0.015;
    /** Traffic management: sub-request deadlines/retries and breakers
     *  on the fan-out edge, admission control on the bucket tier. */
    TrafficPolicy traffic{};
};

/**
 * The HDSearch cluster: a ServiceGraph owning the midtier and bucket
 * machines and the links between them; looks like a single Endpoint
 * to the client. Both machines share the server-side HwConfig, so the
 * SMT / C1E studies of Figure 4 toggle the knob on every tier.
 */
class HdSearchCluster : public net::Endpoint
{
  public:
    /**
     * @param serverCfg hardware config applied to midtier and bucket.
     * @param replyLink link carrying final responses to the client.
     */
    HdSearchCluster(Simulator &sim, const hw::HwConfig &serverCfg,
                    net::Link &replyLink, net::Endpoint &client, Rng rng,
                    HdSearchParams params = {});

    /** Client request arrives at the midtier NIC. */
    void onMessage(const net::Message &req) override
    {
        graph_.onMessage(req);
    }

    const ServiceStats &stats() const { return graph_.stats(); }
    const HdSearchParams &params() const { return params_; }

    hw::Machine &midtier() { return midtier_->machine(); }

    /** Bucket machine of @p replica (one machine per replica). */
    hw::Machine &bucket(int replica = 0)
    {
        return bucket_->machine(replica);
    }

    /** The scatter-gather edge (tests / diagnostics). */
    const Fanout &fanout() const { return *fanout_; }

    /** The underlying graph (fault injection, diagnostics). */
    ServiceGraph &graph() { return graph_; }

    /** This run's service-time environment factor. */
    double envFactor() const { return graph_.envFactor(); }

  private:
    HdSearchParams params_;
    ServiceGraph graph_;
    Tier *midtier_;
    Tier *bucket_;
    Fanout *fanout_;
};

} // namespace svc
} // namespace tpv

#endif // TPV_SVC_HDSEARCH_HH
