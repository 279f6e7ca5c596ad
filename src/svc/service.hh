/**
 * @file
 * The single-tier server runtime shared by Memcached and the
 * synthetic workload, expressed as a one-tier ServiceGraph.
 * ServiceStats lives in svc/topology.hh and is re-exported here.
 */

#ifndef TPV_SVC_SERVICE_HH
#define TPV_SVC_SERVICE_HH

#include <cstdint>

#include "hw/machine.hh"
#include "net/link.hh"
#include "net/message.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "svc/topology.hh"
#include "svc/worker_pool.hh"

namespace tpv {
namespace svc {

/**
 * Single-tier request/response server: NIC IRQ -> worker queue ->
 * service work -> transmit. Subclasses define per-request service
 * work and response size.
 *
 * The request path per message:
 *  1. uncore + IRQ/softirq work on the connection's IRQ thread
 *     (sibling hardware thread when SMT is on);
 *  2. service work + tx work FIFO-queued on the pinned worker thread
 *     (queueing delay at high load arises here);
 *  3. response sent down the reply link.
 */
class SingleTierServer : public net::Endpoint
{
  public:
    /**
     * @param replyLink link used for responses.
     * @param client endpoint the responses go to.
     * @param workers worker threads, pinned one per core.
     * @param runVariability relative sd of the per-run environment
     *        factor multiplying service times — the residual
     *        machine-state variation (thermal, memory layout) that
     *        survives environment resets and differentiates runs.
     */
    SingleTierServer(Simulator &sim, hw::Machine &machine,
                     net::Link &replyLink, net::Endpoint &client,
                     int workers, Rng rng, double runVariability = 0.0);

    /** This run's service-time environment factor. */
    double envFactor() const { return graph_.envFactor(); }

    void onMessage(const net::Message &req) final
    {
        graph_.onMessage(req);
    }

    /** Service counters. */
    const ServiceStats &stats() const { return graph_.stats(); }

    /** The underlying graph (fault injection, diagnostics). */
    ServiceGraph &graph() { return graph_; }

    /** Worker pool (tests / diagnostics). */
    WorkerPool &pool() { return tier_->pool(); }

  protected:
    /** Nominal CPU work to serve @p req. */
    virtual Time serviceWork(const net::Message &req, Rng &rng) = 0;

    /** Response wire size for @p req. */
    virtual std::uint32_t responseBytes(const net::Message &req,
                                        Rng &rng) = 0;

    Simulator &sim_;
    hw::Machine &machine_;

  private:
    ServiceGraph graph_;
    Tier *tier_;
};

} // namespace svc
} // namespace tpv

#endif // TPV_SVC_SERVICE_HH
