/**
 * @file
 * Workload-generator taxonomy (paper Section II) for the open-loop
 * generator: inter-arrival time implementation (time-sensitive
 * block-wait vs time-insensitive busy-wait), response completion
 * path, and point of measurement.
 */

#ifndef TPV_LOADGEN_PARAMS_HH
#define TPV_LOADGEN_PARAMS_HH

#include <cstdint>
#include <functional>

#include "net/message.hh"
#include "sim/random.hh"
#include "sim/time.hh"

namespace tpv {
namespace loadgen {

/**
 * How the generator waits for the next inter-arrival instant.
 * BlockWait (mutilate, wrk2): the event loop sleeps; timing is
 * *sensitive* to wake-up latency. BusyWait (MicroSuite clients): the
 * loop polls for elapsed time; timing is *insensitive* but burns a
 * core.
 */
enum class SendMode { BlockWait, BusyWait };

/** @return "block-wait" / "busy-wait". */
const char *toString(SendMode m);

/**
 * How responses reach the generator. Blocking: epoll-style — the NIC
 * interrupt wakes the (possibly sleeping) thread and a context switch
 * precedes the timestamp. Polling: the app polls the socket; no wake,
 * no context switch.
 */
enum class CompletionMode { Blocking, Polling };

/** @return "blocking" / "polling". */
const char *toString(CompletionMode m);

/**
 * Where the response timestamp is taken (paper Section II / Lancet):
 * inside the generator application (typical), at the kernel softirq,
 * or at the NIC (hardware timestamping).
 */
enum class MeasurePoint { InApp, Kernel, Nic };

/** @return "in-app" / "kernel" / "nic". */
const char *toString(MeasurePoint p);

/**
 * Fills application fields (kind, bytes) of an outgoing request;
 * lets a service-specific workload model plug into the generator.
 */
using RequestModel = std::function<void(Rng &, net::Message &)>;

/** Open-loop generator configuration. */
struct OpenLoopParams
{
    /**
     * Aggregate offered load across all generator threads. Each
     * thread sends a Poisson stream (exponential gaps) of
     * qps / threads, which must leave a per-thread mean gap of at
     * least 1 ns.
     */
    double qps = 10000;
    /** Generator threads, one per client core. */
    int threads = 10;
    SendMode sendMode = SendMode::BlockWait;
    CompletionMode completion = CompletionMode::Blocking;
    MeasurePoint measure = MeasurePoint::InApp;
    /** Samples sent before this offset are warmup and not recorded. */
    Time warmup = msec(100);
    /** Length of the measured window. */
    Time duration = seconds(1);
    /** CPU cost of building + writing one request (>= 0). */
    Time sendWork = usec(1);
    /** CPU cost of reading + parsing + timestamping one response
     *  (>= 0). */
    Time parseWork = usec(1);
    /** Request bytes when no RequestModel is given. */
    std::uint32_t requestBytes = 100;
    /** Optional service-specific request filler. */
    RequestModel requestModel;

    /** End of the recording window relative to start(). */
    Time windowEnd() const { return warmup + duration; }
};

} // namespace loadgen
} // namespace tpv

#endif // TPV_LOADGEN_PARAMS_HH
