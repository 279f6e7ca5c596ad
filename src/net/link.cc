#include "net/link.hh"

#include "sim/logging.hh"

namespace tpv {
namespace net {

Link::Link(Simulator &sim, Rng rng) : Link(sim, rng, Params()) {}

Link::Link(Simulator &sim, Rng rng, Params params)
    : sim_(sim), rng_(rng), params_(params), jitter_(1.0, params.jitterFrac)
{
    if (params_.baseLatency < 0) {
        fatal("net::Link::Params::baseLatency must be >= 0, got ",
              params_.baseLatency);
    }
    if (!(params_.bandwidthGbps > 0)) {
        fatal("net::Link::Params::bandwidthGbps must be positive, got ",
              params_.bandwidthGbps);
    }
    if (params_.jitterFrac < 0) {
        fatal("net::Link::Params::jitterFrac must be >= 0, got ",
              params_.jitterFrac);
    }
    // Pre-size the in-flight pool past any occupancy a sanely-loaded
    // link reaches (bench/hotpath gates on zero steady-state heap
    // allocations); slot order is unchanged by the reservation, so
    // delivery order and ids are too.
    inflight_.reserve(64);
}

Time
Link::sampleDelay(std::uint32_t bytes)
{
    // jitterFrac == 0 multiplies by exactly 1 without a draw.
    const double mult = rng_.lognormal(jitter_);
    const double propagation =
        static_cast<double>(params_.baseLatency) * mult;
    // bytes * 8 bits / (Gbps) = ns
    const double serialization =
        static_cast<double>(bytes) * 8.0 / params_.bandwidthGbps;
    return static_cast<Time>(propagation + serialization);
}

void
Link::send(Message msg, Endpoint &dst)
{
    const Time delay = sampleDelay(msg.bytes);
    ++messagesSent_;
    if (observer_)
        observer_(msg, delay);
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
