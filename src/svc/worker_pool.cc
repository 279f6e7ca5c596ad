#include "svc/worker_pool.hh"

#include "sim/logging.hh"

namespace tpv {
namespace svc {

WorkerPool::WorkerPool(hw::Machine &machine, int workers, int firstCore)
    : machine_(machine), workers_(workers), firstCore_(firstCore)
{
    if (workers <= 0)
        fatal("WorkerPool needs at least one worker");
    if (firstCore < 0 ||
        static_cast<std::size_t>(firstCore + workers) > machine.coreCount()) {
        fatal("WorkerPool [", firstCore, ", ", firstCore + workers,
              ") does not fit machine '", machine.name(), "' with ",
              machine.coreCount(), " cores");
    }
}

int
WorkerPool::workerFor(std::uint32_t conn) const
{
    return static_cast<int>(conn % static_cast<std::uint32_t>(workers_));
}

hw::HwThread &
WorkerPool::serviceThread(std::uint32_t conn)
{
    return machine_.core(
                       static_cast<std::size_t>(firstCore_ + workerFor(conn)))
        .thread(0);
}

std::size_t
WorkerPool::irqThreadIndex(std::uint32_t conn) const
{
    const auto coreIdx =
        static_cast<std::size_t>(firstCore_ + workerFor(conn));
    if (machine_.config().smt)
        return coreIdx + machine_.coreCount(); // sibling thread
    return coreIdx;
}

} // namespace svc
} // namespace tpv
