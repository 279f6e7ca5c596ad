/**
 * @file
 * Open-loop workload generator (mutilate / wrk2 / MicroSuite client
 * style): requests follow an inter-arrival schedule independent of
 * response completions, modelling an infinite client population
 * (paper Section II).
 */

#ifndef TPV_LOADGEN_OPENLOOP_HH
#define TPV_LOADGEN_OPENLOOP_HH

#include <cstdint>
#include <vector>

#include "hw/machine.hh"
#include "loadgen/params.hh"
#include "loadgen/recorder.hh"
#include "net/link.hh"
#include "net/message.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace tpv {
namespace loadgen {

/**
 * The open-loop generator. Each generator thread runs on its own
 * client-machine core, draws inter-arrival gaps, and sends requests
 * to the service; responses come back through onMessage() (the
 * client NIC) and are timestamped at the configured MeasurePoint.
 *
 * Client-side configuration effects enter in two places:
 *  - send side: a BlockWait thread sleeps until the next send and
 *    pays C-state exit + (slow-frequency) dispatch work, shifting the
 *    request later than scheduled (recorded as lateness);
 *  - receive side: a Blocking completion path pays wake + IRQ +
 *    context switch + parse before the in-app timestamp.
 */
class OpenLoopGenerator : public net::Endpoint
{
  public:
    OpenLoopGenerator(Simulator &sim, hw::Machine &client,
                      net::Link &toServer, net::Endpoint &server,
                      OpenLoopParams params, Rng rng);

    /**
     * Begin generating. The measurement window opens at
     * now + warmup and closes warmup + duration later; sends stop at
     * window close.
     */
    void start();

    /** Response arrival at the client NIC. */
    void onMessage(const net::Message &resp) override;

    /** Collected measurements. */
    LatencyRecorder &recorder() { return recorder_; }
    const LatencyRecorder &recorder() const { return recorder_; }

    /** Absolute end of the measurement window (drain past this). */
    Time windowEnd() const { return windowEnd_; }

    const OpenLoopParams &params() const { return params_; }

  private:
    struct GenThread
    {
        std::size_t threadIdx = 0;
        Time nextIntended = 0;
        std::uint64_t sendCount = 0;
        Rng rng{0};
    };

    void scheduleNext(GenThread &g);
    void doSend(GenThread &g, Time intended);
    void handleResponse(const net::Message &resp, Time nicTime);

    Simulator &sim_;
    hw::Machine &client_;
    net::Link &toServer_;
    net::Endpoint &server_;
    OpenLoopParams params_;
    LatencyRecorder recorder_;
    std::vector<GenThread> gens_;
    Time perThreadGapMean_ = 0;
    Time sendDeadline_ = 0;
    Time windowEnd_ = 0;
    /**
     * When the send loops busy-wait but completions block (the
     * MicroSuite client: a spinning timing loop plus blocking RPC
     * completion threads), responses are handled on a second bank of
     * threads at this offset — those *can* sleep, so the client
     * configuration still touches the measurement path.
     */
    std::size_t completionOffset_ = 0;
};

} // namespace loadgen
} // namespace tpv

#endif // TPV_LOADGEN_OPENLOOP_HH
