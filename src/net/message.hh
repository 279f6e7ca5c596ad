/**
 * @file
 * The unit of network traffic between workload generators and
 * services, carrying the timestamps the measurement methodology
 * argues about (paper Section II, "points of measurement").
 */

#ifndef TPV_NET_MESSAGE_HH
#define TPV_NET_MESSAGE_HH

#include <cstdint>

#include "sim/time.hh"

namespace tpv {
namespace net {

/**
 * One request or response. Small and trivially copyable: messages are
 * passed by value through the simulated network.
 */
struct Message
{
    /** Request id; the response echoes it. */
    std::uint64_t id = 0;
    /**
     * For a scatter-gather sub-request (and its reply): the id of the
     * parent request it belongs to. Explicit correlation instead of
     * packing the parent into the sub-request id, so fan-out width is
     * unbounded.
     */
    std::uint64_t parentId = 0;
    /** Shard index of a sub-request within its parent's fan-out. */
    std::uint16_t shard = 0;
    /**
     * Replica chosen to serve (or hedge) the shard. A byte keeps
     * Message inside its 64-byte budget; 255 replicas per shard is
     * far past any studied shape (svc::Fanout rejects more).
     */
    std::uint8_t replica = 0;
    /** Application-specific opcode (e.g. GET/SET). */
    std::uint8_t kind = 0;
    /**
     * Connection the message belongs to (drives RSS / worker pinning).
     * 16 bits: connections are generator-thread / client indices (a
     * few dozen at most), and a fan-out folds its shard into the
     * parent connection (conn * shards + shard), which stays far
     * below 65536 for every studied shape. Narrowing from 32 bits
     * freed the room the key id below needs.
     */
    std::uint16_t conn = 0;
    /** True for server -> client traffic. */
    bool isResponse = false;
    /**
     * Tied sub-request: a twin copy was sent to another replica, and
     * whichever copy starts executing first claims the request — the
     * other is cancelled before it runs (Dean & Barroso's tied
     * requests). Message stays within 64 bytes, which the
     * inline-callback capture budgets depend on.
     */
    bool tied = false;
    /**
     * Key id of a keyed (memcached) request: the Zipf popularity rank
     * drawn by svc::KeyspaceModel, 0 in unkeyed workloads. Carried on
     * the wire so shard routing and per-shard cache lookups agree on
     * the key without re-deriving it. 32 bits: a keyed run's keyspace
     * is at most 2^32 keys (CacheShape::validate() fatal()s above).
     */
    std::uint32_t key = 0;
    /** Wire size, for serialization delay. */
    std::uint32_t bytes = 0;
    /**
     * Nominal service work (nanoseconds) the server spent producing
     * this response; lets an aggregator account the work of a
     * discarded (hedged loser) reply as duplicate. 32 bits bound one
     * request's work at ~4.29 simulated seconds — orders of magnitude
     * above any per-request work model here.
     */
    std::uint32_t serviceWork = 0;

    /**
     * When the generator's application code issued the request —
     * the in-app transmit timestamp of a mutilate-style generator.
     * Every latency the generator records is measured from here.
     */
    Time appSendTime = 0;
};

// The HwThread::Callback budget (80 bytes) is sized for "a Message
// plus an owner pointer"; growing Message past 64 bytes would break
// every dispatch-path capture. It is 48 bytes today, so 16 spare
// bytes remain under the assert.
static_assert(sizeof(Message) <= 64, "Message grew past the inline "
                                     "capture budget's assumption");

/** Anything that can receive messages from a Link. */
class Endpoint
{
  public:
    virtual ~Endpoint() = default;

    /** A message arrived at this endpoint's NIC. */
    virtual void onMessage(const Message &msg) = 0;
};

} // namespace net
} // namespace tpv

#endif // TPV_NET_MESSAGE_HH
