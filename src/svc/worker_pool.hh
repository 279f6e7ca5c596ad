/**
 * @file
 * Worker-to-hardware-thread pinning for server runtimes.
 *
 * Workers are pinned one per physical core (thread 0), matching the
 * paper's "10 worker threads pinned on a single socket". Network IRQ
 * work for a worker's connections lands on the worker's own hardware
 * thread when SMT is off, or on the core's sibling thread when SMT is
 * on — which is exactly the mechanism by which enabling server-side
 * SMT takes interrupt processing off the workers' critical path
 * (Figure 2's tail-latency improvement).
 */

#ifndef TPV_SVC_WORKER_POOL_HH
#define TPV_SVC_WORKER_POOL_HH

#include <cstdint>

#include "hw/machine.hh"

namespace tpv {
namespace svc {

/** Maps connection keys to service / IRQ hardware threads. */
class WorkerPool
{
  public:
    /**
     * @param machine host machine.
     * @param workers worker count; must fit the available cores.
     * @param firstCore first core of the pool (pools of a multi-stage
     *        service partition the socket).
     */
    WorkerPool(hw::Machine &machine, int workers, int firstCore = 0);

    /** Worker index a connection hashes to. */
    int workerFor(std::uint32_t conn) const;

    /** The pinned service thread of that connection's worker. */
    hw::HwThread &serviceThread(std::uint32_t conn);

    /**
     * Global thread index for the connection's receive IRQ: the
     * sibling hardware thread when SMT is on, else the worker's own.
     */
    std::size_t irqThreadIndex(std::uint32_t conn) const;

    /** Worker count. */
    int workers() const { return workers_; }

  private:
    hw::Machine &machine_;
    int workers_;
    int firstCore_;
};

} // namespace svc
} // namespace tpv

#endif // TPV_SVC_WORKER_POOL_HH
