/**
 * @file
 * Point-to-point network path between two machines of the test
 * cluster: propagation + switching latency with jitter, plus
 * store-and-forward serialization by message size.
 */

#ifndef TPV_NET_LINK_HH
#define TPV_NET_LINK_HH

#include <cstdint>
#include <functional>

#include "net/message.hh"
#include "sim/fixed_containers.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace tpv {
namespace net {

/**
 * A one-way network path. Latency model:
 *   delay = baseLatency * lognormal(1, jitterFrac) + bytes / bandwidth
 *
 * Defaults approximate one switch hop of a 10 GbE CloudLab rack:
 * ~5 us one-way with ~10% jitter.
 */
class Link
{
  public:
    struct Params
    {
        /** Median one-way latency. */
        Time baseLatency = usec(5);
        /** Relative sd of the lognormal latency multiplier. */
        double jitterFrac = 0.10;
        /** Line rate for serialization delay. */
        double bandwidthGbps = 10.0;
    };

    /** Build a link with default parameters. */
    Link(Simulator &sim, Rng rng);

    Link(Simulator &sim, Rng rng, Params params);

    /** Deliver @p msg to @p dst after the modelled delay. */
    void send(Message msg, Endpoint &dst);

    /** Messages pushed through this link. */
    std::uint64_t messagesSent() const { return messagesSent_; }

    /** Total queued+in-flight delay accumulated (diagnostics). */
    Time totalDelay() const { return totalDelay_; }

    /** Compute the delay this link would draw for @p bytes (test hook:
     *  advances the RNG exactly like an undegraded send()). */
    Time sampleDelay(std::uint32_t bytes);

    /**
     * Degrade the path (fault injection): every subsequent send pays
     * @p addedLatency on top of the modelled delay, and is dropped
     * outright with probability @p lossFraction (drawn from the
     * link's own rng, so degraded runs stay seed-deterministic).
     * @p lostCounter, when non-null, is incremented per drop — the
     * injector points it at ServiceStats::requestsLost.
     */
    void degrade(Time addedLatency, double lossFraction,
                 std::uint64_t *lostCounter = nullptr);

    /** Restore the healthy path. */
    void clearDegrade();

    /** True while degrade() is in effect. */
    bool degraded() const { return degraded_; }

    /** Messages dropped by an injected loss fault. */
    std::uint64_t messagesDropped() const { return messagesDropped_; }

    /**
     * Observer of every send: (message, sampled one-way delay,
     * dropped-by-fault). Called before the delivery is scheduled —
     * the flight recorder's wire spans. Null (the default) costs one
     * branch per send; install only from run setup, never mid-run.
     */
    using SendObserver =
        std::function<void(const Message &, Time, bool)>;

    void setObserver(SendObserver obs) { observer_ = std::move(obs); }

  private:
    /** Deliver in-flight message @p idx to @p dst and free its slot. */
    void deliver(std::uint32_t idx, Endpoint *dst);

    Simulator &sim_;
    Rng rng_;
    Params params_;
    /**
     * Messages in flight on this link. Parking the payload here lets
     * the delivery event capture a 4-byte slot index instead of the
     * whole Message, keeping it inside the event queue's inline
     * callback budget (and off the heap).
     */
    SlotPool<Message> inflight_;
    std::uint64_t messagesSent_ = 0;
    Time totalDelay_ = 0;
    /** Fault-injection state (degrade() / clearDegrade()). */
    bool degraded_ = false;
    Time degradeLatency_ = 0;
    double degradeLoss_ = 0.0;
    std::uint64_t *degradeLostCounter_ = nullptr;
    std::uint64_t messagesDropped_ = 0;
    SendObserver observer_;
};

} // namespace net
} // namespace tpv

#endif // TPV_NET_LINK_HH
