#include "net/link.hh"

#include "sim/logging.hh"

namespace tpv {
namespace net {

Link::Link(Simulator &sim, Rng rng) : Link(sim, rng, Params()) {}

Link::Link(Simulator &sim, Rng rng, Params params)
    : sim_(sim), rng_(rng), params_(params)
{
    TPV_ASSERT(params_.baseLatency >= 0, "negative link latency");
    TPV_ASSERT(params_.bandwidthGbps > 0, "non-positive link bandwidth");
    // Pre-size the in-flight pool past any occupancy a sanely-loaded
    // link reaches (bench/hotpath gates on zero steady-state heap
    // allocations); slot order is unchanged by the reservation, so
    // delivery order and ids are too.
    inflight_.reserve(64);
}

Time
Link::sampleDelay(std::uint32_t bytes)
{
    double mult = 1.0;
    if (params_.jitterFrac > 0)
        mult = rng_.lognormalMeanSd(1.0, params_.jitterFrac);
    const double propagation =
        static_cast<double>(params_.baseLatency) * mult;
    // bytes * 8 bits / (Gbps) = ns
    const double serialization =
        static_cast<double>(bytes) * 8.0 / params_.bandwidthGbps;
    return static_cast<Time>(propagation + serialization);
}

void
Link::degrade(Time addedLatency, double lossFraction,
              std::uint64_t *lostCounter)
{
    TPV_ASSERT(addedLatency >= 0, "negative degrade latency");
    TPV_ASSERT(lossFraction >= 0.0 && lossFraction <= 1.0,
               "loss fraction outside [0, 1]: ", lossFraction);
    degraded_ = true;
    degradeLatency_ = addedLatency;
    degradeLoss_ = lossFraction;
    degradeLostCounter_ = lostCounter;
}

void
Link::clearDegrade()
{
    degraded_ = false;
    degradeLatency_ = 0;
    degradeLoss_ = 0.0;
    degradeLostCounter_ = nullptr;
}

void
Link::send(Message msg, Endpoint &dst)
{
    Time delay = sampleDelay(msg.bytes);
    ++messagesSent_;
    if (degraded_) {
        // Loss first, so an undropped message still pays the added
        // latency. Extra rng draws happen only while degraded, so
        // healthy runs keep their exact pre-fault streams.
        if (degradeLoss_ > 0 && rng_.chance(degradeLoss_)) {
            ++messagesDropped_;
            if (degradeLostCounter_ != nullptr)
                ++*degradeLostCounter_;
            if (observer_)
                observer_(msg, delay, true);
            return;
        }
        delay += degradeLatency_;
    }
    if (observer_)
        observer_(msg, delay, false);
    totalDelay_ += delay;
    const std::uint32_t idx = inflight_.acquire(msg);
    Endpoint *d = &dst;
    sim_.schedule(delay, [this, idx, d] { deliver(idx, d); });
}

void
Link::deliver(std::uint32_t idx, Endpoint *dst)
{
    // Free the slot before delivering: the handler may send again and
    // reuse it.
    const Message msg = inflight_.take(idx);
    dst->onMessage(msg);
}

} // namespace net
} // namespace tpv
