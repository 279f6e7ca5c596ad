#include "loadgen/openloop.hh"

#include <cmath>

#include "sim/logging.hh"

namespace tpv {
namespace loadgen {

OpenLoopGenerator::OpenLoopGenerator(Simulator &sim, hw::Machine &client,
                                     net::Link &toServer,
                                     net::Endpoint &server,
                                     OpenLoopParams params, Rng rng)
    : sim_(sim), client_(client), toServer_(toServer), server_(server),
      params_(std::move(params))
{
    if (!(params_.qps > 0) || !std::isfinite(params_.qps)) {
        fatal("OpenLoopParams::qps must be positive and finite, got ",
              params_.qps);
    }
    if (params_.threads <= 0)
        fatal("OpenLoopParams::threads must be >= 1, got ", params_.threads);
    if (params_.warmup < 0)
        fatal("OpenLoopParams::warmup must be >= 0, got ", params_.warmup);
    if (params_.duration <= 0) {
        fatal("OpenLoopParams::duration must be > 0, got ",
              params_.duration);
    }
    if (params_.sendWork < 0) {
        fatal("OpenLoopParams::sendWork must be >= 0, got ",
              params_.sendWork);
    }
    if (params_.parseWork < 0) {
        fatal("OpenLoopParams::parseWork must be >= 0, got ",
              params_.parseWork);
    }
    // Busy-wait send loops with blocking completions use a second
    // bank of (sleepable) completion threads.
    if (params_.sendMode == SendMode::BusyWait &&
        params_.completion == CompletionMode::Blocking) {
        completionOffset_ = static_cast<std::size_t>(params_.threads);
    }
    const std::size_t needed =
        static_cast<std::size_t>(params_.threads) + completionOffset_;
    if (needed > client_.coreCount()) {
        fatal("generator needs ", needed,
              " client threads but the machine has ",
              client_.coreCount(), " cores");
    }

    const double perThreadRate =
        params_.qps / static_cast<double>(params_.threads);
    perThreadGapMean_ =
        static_cast<Time>(static_cast<double>(kSecond) / perThreadRate);
    if (perThreadGapMean_ <= 0) {
        fatal("OpenLoopParams::qps / threads must be <= 1e9 (a 1 ns "
              "mean gap), got ", perThreadRate);
    }

    gens_.resize(static_cast<std::size_t>(params_.threads));
    for (std::size_t g = 0; g < gens_.size(); ++g) {
        gens_[g].threadIdx = g; // thread 0 of core g
        gens_[g].rng = rng.fork();
    }
}

void
OpenLoopGenerator::start()
{
    const Time now = sim_.now();
    recorder_.setWindow(now + params_.warmup, now + params_.windowEnd());
    // Size the sample vectors from the offered load x window so the
    // record path never reallocates mid-run.
    recorder_.reserveFor(params_.qps, params_.duration);
    sendDeadline_ = now + params_.windowEnd();
    windowEnd_ = now + params_.windowEnd();

    for (auto &g : gens_) {
        if (params_.sendMode == SendMode::BusyWait) {
            // The poll loop owns the core for the whole run.
            client_.thread(g.threadIdx).setAlwaysBusy(true);
        }
        // Stagger thread start phases like independent connections.
        g.nextIntended = now + g.rng.exponentialTime(perThreadGapMean_);
        scheduleNext(g);
    }
}

void
OpenLoopGenerator::scheduleNext(GenThread &g)
{
    const Time intended = g.nextIntended;
    if (intended >= sendDeadline_)
        return;
    hw::HwThread &thr = client_.thread(g.threadIdx);

    if (params_.sendMode == SendMode::BlockWait) {
        if (intended <= sim_.now()) {
            // Running behind schedule: send without sleeping.
            thr.submit(params_.sendWork,
                       [this, &g, intended] { doSend(g, intended); });
        } else {
            // The event loop blocks until the timer. If it was truly
            // blocked at fire time, the timer IRQ + context switch
            // precede the send; if other events kept it running, the
            // timer is picked up in the same epoll batch.
            auto dispatch = [this, &g]() -> Time {
                const bool blocked = !client_.thread(g.threadIdx).busy();
                const hw::HwConfig &ccfg = client_.config();
                return params_.sendWork +
                       (blocked ? ccfg.irqWork + ccfg.ctxSwitch : 0);
            };
            thr.sleepUntil(intended, dispatch,
                           [this, &g, intended] { doSend(g, intended); });
        }
    } else {
        // Busy-wait: fire exactly on schedule; only the send syscall
        // costs CPU.
        const Time delay =
            intended > sim_.now() ? intended - sim_.now() : 0;
        sim_.schedule(delay, [this, &g, intended] {
            client_.thread(g.threadIdx)
                .submit(params_.sendWork,
                        [this, &g, intended] { doSend(g, intended); });
        });
    }
}

void
OpenLoopGenerator::doSend(GenThread &g, Time intended)
{
    const Time now = sim_.now();

    net::Message req;
    req.id = (static_cast<std::uint64_t>(g.threadIdx) << 40) | g.sendCount;
    ++g.sendCount;
    req.conn = static_cast<std::uint32_t>(g.threadIdx);
    req.bytes = params_.requestBytes;
    req.appSendTime = now;
    if (params_.requestModel)
        params_.requestModel(g.rng, req);

    recorder_.countSent();
    recorder_.recordLateness(now, toUsec(now - intended));

    toServer_.send(req, server_);

    // Open loop: the next request follows the schedule regardless of
    // this one's completion.
    g.nextIntended += g.rng.exponentialTime(perThreadGapMean_);
    scheduleNext(g);
}

void
OpenLoopGenerator::onMessage(const net::Message &resp)
{
    handleResponse(resp, sim_.now());
}

void
OpenLoopGenerator::handleResponse(const net::Message &resp, Time nicTime)
{
    recorder_.countReceived();
    // Responses RSS to the sender's thread, or to its dedicated
    // completion thread when the send loop busy-waits.
    const std::size_t thrIdx = resp.conn + completionOffset_;
    const hw::HwConfig &cfg = client_.config();
    // Only the send timestamp survives past this point — capturing it
    // alone (instead of the whole response) keeps these per-response
    // callbacks inside the run queue's inline budget.
    const Time sentAt = resp.appSendTime;

    if (params_.measure == MeasurePoint::Nic)
        recorder_.recordLatency(sentAt, toUsec(nicTime - sentAt));

    if (params_.completion == CompletionMode::Blocking) {
        // IRQ wakes the core; the softirq timestamp is the kernel
        // measurement point; the context switch + parse precede the
        // in-app timestamp. If the event loop is already running when
        // the response arrives, it is picked up in the current epoll
        // batch — no additional context switch.
        const bool blocked = !client_.thread(thrIdx).busy();
        client_.deliverIrq(thrIdx, cfg.irqWork,
                           [this, sentAt, thrIdx, blocked] {
            if (params_.measure == MeasurePoint::Kernel) {
                recorder_.recordLatency(sentAt,
                                        toUsec(sim_.now() - sentAt));
            }
            const hw::HwConfig &ccfg = client_.config();
            const Time handoff = blocked ? ccfg.ctxSwitch : 0;
            client_.thread(thrIdx).submit(
                handoff + params_.parseWork, [this, sentAt] {
                    if (params_.measure == MeasurePoint::InApp) {
                        recorder_.recordLatency(
                            sentAt, toUsec(sim_.now() - sentAt));
                    }
                });
        });
    } else {
        // Polling completion: the spinning app thread parses the
        // response directly; no wake, no context switch.
        client_.thread(thrIdx).submit(params_.parseWork,
                                      [this, sentAt] {
            if (params_.measure == MeasurePoint::Kernel ||
                params_.measure == MeasurePoint::InApp) {
                recorder_.recordLatency(sentAt,
                                        toUsec(sim_.now() - sentAt));
            }
        });
    }
}

} // namespace loadgen
} // namespace tpv
