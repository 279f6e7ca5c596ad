/**
 * @file
 * The layer ladder: prices each simulator layer from outside by
 * rebuilding one cell's run rung by rung from public constructors (the
 * way bench/hotpath.cc wires a run by hand) and timing each rung.
 *
 *   queue    the event queue alone: the cell's Poisson senders, each
 *            arrival scheduling its reply one round trip later;
 *   +hw      the same flow through a client hw::Machine (timer sleeps
 *            or busy-wait sends, reply IRQs, completion wakes) and one
 *            server machine doing the request's nominal work;
 *   +net     the fixed one-way delays replaced by two net::Links;
 *   +loadgen the hand-rolled senders replaced by the real
 *            loadgen::OpenLoopGenerator (request model, recorder);
 *   full     core::runOnce on the cell, i.e. + the service layer.
 *
 * A layer's host cost per request is its rung minus the one below, so
 * "svc" is everything runOnce adds over a one-machine echo service:
 * tiers, fan-out, routing, caches and the extra machines of
 * multi-tier clusters.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hh"
#include "hw/cstate.hh"
#include "hw/idle_governor.hh"
#include "hw/machine.hh"
#include "loadgen/openloop.hh"
#include "net/link.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "stats/descriptive.hh"

namespace perfbench {

using tpv::Rng;
using tpv::Simulator;
using tpv::Time;
namespace core = tpv::core;
namespace hw = tpv::hw;
namespace loadgen = tpv::loadgen;
namespace net = tpv::net;

namespace {

/** runOnce's post-window drain. */
constexpr Time kDrain = tpv::msec(50);

/** Nominal server CPU work of one root request of @p cfg. */
Time
serverWork(const core::ExperimentConfig &cfg)
{
    if (cfg.workload == core::WorkloadKind::HdSearch) {
        const auto &h = cfg.hdsearch;
        return h.midPreWork + h.bucketMean + h.midMergeWork +
               h.midPostWork;
    }
    return cfg.memcached.baseServiceTime;
}

/** The client machine exactly as runOnce sizes it. */
hw::HwConfig
clientConfig(const core::ExperimentConfig &cfg)
{
    hw::HwConfig c = cfg.client;
    int needed = cfg.gen.threads;
    if (cfg.gen.sendMode == loadgen::SendMode::BusyWait &&
        cfg.gen.completion == loadgen::CompletionMode::Blocking)
        needed *= 2;
    c.cores = std::max(c.cores, needed);
    return c;
}

/** Runs @p sim to @p horizon, sampling the queue depth. */
double
runSampled(Simulator &sim, Time horizon)
{
    double depth = 0;
    long samples = 0;
    std::uint64_t nextSample = 0;
    // Step in 100 us slices so depth sampling stays off the event path.
    for (Time t = sim.now(); t < horizon;) {
        t = std::min(horizon, t + tpv::usec(100));
        sim.runUntil(t);
        if (sim.executedEvents() >= nextSample) {
            depth += static_cast<double>(sim.pendingEvents());
            ++samples;
            nextSample = sim.executedEvents() + 1000;
        }
    }
    return samples > 0 ? depth / static_cast<double>(samples) : 0;
}

/**
 * The hand-rolled open-loop flow of rungs queue, +hw and +net. Each
 * generator thread draws exponential gaps; a send crosses to the
 * server, runs the request's nominal work and comes back. Which
 * layers carry it depends on the rung.
 */
class HandFlow
{
  public:
    enum class Layer { Queue, Hw, Net };

    HandFlow(const core::ExperimentConfig &cfg, Layer layer,
             std::uint64_t seed)
        : cfg_(cfg), layer_(layer), rng_(seed ^ 0x5bd1e995ULL)
    {
        oneWay_ = cfg.network.baseLatency;
        work_ = serverWork(cfg);
        serverDoor_.flow = this;
        clientDoor_.flow = this;
        if (layer_ != Layer::Queue) {
            client_ = std::make_unique<hw::Machine>(
                sim_, clientConfig(cfg), "client", rng_.u64());
            server_ = std::make_unique<hw::Machine>(sim_, cfg.server,
                                                    "server", rng_.u64());
            serverThreads_ = std::min<std::size_t>(
                server_->threadCount(),
                static_cast<std::size_t>(cfg.memcached.workers));
        }
        if (layer_ == Layer::Net) {
            toServer_ = std::make_unique<net::Link>(sim_, rng_.fork(),
                                                    cfg.network);
            toClient_ = std::make_unique<net::Link>(sim_, rng_.fork(),
                                                    cfg.network);
        }
        busyWait_ = cfg.gen.sendMode == loadgen::SendMode::BusyWait;
        if (busyWait_ &&
            cfg.gen.completion == loadgen::CompletionMode::Blocking)
            completionOffset_ = static_cast<std::size_t>(cfg.gen.threads);
        const double perThread =
            cfg.gen.qps / static_cast<double>(cfg.gen.threads);
        gap_ = static_cast<Time>(1e9 / perThread);
        deadline_ = cfg.gen.warmup + cfg.gen.duration;
        // Senders draw from their own stream so every rung replays the
        // same arrival process.
        Rng senders(seed);
        threads_.resize(static_cast<std::size_t>(cfg.gen.threads));
        for (std::size_t g = 0; g < threads_.size(); ++g)
            threads_[g].rng = senders.fork();
    }

    Rung
    run(const char *name)
    {
        for (std::size_t g = 0; g < threads_.size(); ++g) {
            if (client_ && busyWait_)
                client_->thread(g).setAlwaysBusy(true);
            threads_[g].next = threads_[g].rng.exponentialTime(gap_);
            scheduleNext(g);
        }
        Rung r;
        r.name = name;
        r.meanDepth = runSampled(sim_, deadline_ + kDrain);
        r.events = sim_.executedEvents();
        r.requests = requests_;
        r.messages = toServer_ ? toServer_->messagesSent() +
                                     toClient_->messagesSent()
                               : 0;
        return r;
    }

  private:
    struct Sender
    {
        Time next = 0;
        Rng rng{0};
    };

    struct ServerDoor : net::Endpoint
    {
        HandFlow *flow = nullptr;
        void
        onMessage(const net::Message &m) override
        {
            flow->serverArrive(m.conn);
        }
    };

    struct ClientDoor : net::Endpoint
    {
        HandFlow *flow = nullptr;
        void
        onMessage(const net::Message &m) override
        {
            flow->clientArrive(m.conn);
        }
    };

    void
    scheduleNext(std::size_t g)
    {
        const Time intended = threads_[g].next;
        if (intended >= deadline_)
            return;
        const Time due = std::max(intended, sim_.now());
        if (!client_) {
            sim_.at(due, [this, g] { send(g); });
        } else if (busyWait_) {
            sim_.at(due, [this, g] {
                client_->thread(g).submit(cfg_.gen.sendWork,
                                          [this, g] { send(g); });
            });
        } else if (intended <= sim_.now()) {
            client_->thread(g).submit(cfg_.gen.sendWork,
                                      [this, g] { send(g); });
        } else {
            auto dispatch = [this, g]() -> Time {
                const bool blocked = !client_->thread(g).busy();
                const hw::HwConfig &c = client_->config();
                return cfg_.gen.sendWork +
                       (blocked ? c.irqWork + c.ctxSwitch : 0);
            };
            client_->thread(g).sleepUntil(intended, dispatch,
                                          [this, g] { send(g); });
        }
    }

    void
    send(std::size_t g)
    {
        ++requests_;
        if (layer_ == Layer::Queue) {
            sim_.schedule(2 * oneWay_ + work_ + cfg_.gen.sendWork +
                              cfg_.gen.parseWork,
                          [] {});
        } else if (layer_ == Layer::Hw) {
            sim_.schedule(oneWay_, [this, g] { serverArrive(g); });
        } else {
            net::Message m;
            m.conn = static_cast<std::uint16_t>(g);
            m.bytes = cfg_.gen.requestBytes;
            toServer_->send(m, serverDoor_);
        }
        threads_[g].next += threads_[g].rng.exponentialTime(gap_);
        scheduleNext(g);
    }

    void
    serverArrive(std::size_t g)
    {
        const std::size_t thr = nextServerThread_++ % serverThreads_;
        server_->deliverIrq(thr, server_->config().irqWork,
                            [this, g, thr] {
            server_->thread(thr).submit(work_, [this, g] {
                if (layer_ == Layer::Hw) {
                    sim_.schedule(oneWay_, [this, g] { clientArrive(g); });
                } else {
                    net::Message m;
                    m.conn = static_cast<std::uint16_t>(g);
                    m.bytes = cfg_.gen.requestBytes;
                    m.isResponse = true;
                    toClient_->send(m, clientDoor_);
                }
            });
        });
    }

    void
    clientArrive(std::size_t g)
    {
        const std::size_t thr = g + completionOffset_;
        const bool blocked = !client_->thread(thr).busy();
        const hw::HwConfig &c = client_->config();
        client_->deliverIrq(thr, c.irqWork, [this, thr, blocked] {
            const Time handoff = blocked ? client_->config().ctxSwitch : 0;
            client_->thread(thr).submit(handoff + cfg_.gen.parseWork,
                                        [] {});
        });
    }

    const core::ExperimentConfig &cfg_;
    Layer layer_;
    Rng rng_;
    Simulator sim_;
    std::unique_ptr<hw::Machine> client_;
    std::unique_ptr<hw::Machine> server_;
    std::unique_ptr<net::Link> toServer_;
    std::unique_ptr<net::Link> toClient_;
    ServerDoor serverDoor_;
    ClientDoor clientDoor_;
    std::vector<Sender> threads_;
    std::size_t serverThreads_ = 1;
    std::size_t nextServerThread_ = 0;
    std::size_t completionOffset_ = 0;
    bool busyWait_ = false;
    Time oneWay_ = 0;
    Time work_ = 0;
    Time gap_ = 0;
    Time deadline_ = 0;
    std::uint64_t requests_ = 0;
};

/**
 * The +loadgen rung: the real open-loop generator over the client
 * machine and both links, answered by a one-machine echo service that
 * runs the request's nominal work and replies.
 */
class EchoService : public net::Endpoint
{
  public:
    EchoService(hw::Machine &server, net::Link &toClient, Time work,
                std::size_t threads)
        : server_(server), toClient_(toClient), work_(work),
          threads_(threads)
    {
    }

    void bind(net::Endpoint &client) { client_ = &client; }

    void
    onMessage(const net::Message &req) override
    {
        const std::size_t thr = next_++ % threads_;
        const std::uint32_t slot = inflight_.acquire(req);
        server_.deliverIrq(thr, server_.config().irqWork,
                           [this, thr, slot] {
            server_.thread(thr).submit(work_, [this, slot] {
                net::Message resp = inflight_.take(slot);
                resp.isResponse = true;
                toClient_.send(resp, *client_);
            });
        });
    }

  private:
    hw::Machine &server_;
    net::Link &toClient_;
    net::Endpoint *client_ = nullptr;
    Time work_;
    std::size_t threads_;
    std::size_t next_ = 0;
    tpv::SlotPool<net::Message> inflight_;
};

Rung
loadgenRung(const core::ExperimentConfig &cfg, std::uint64_t seed)
{
    Simulator sim;
    Rng rng(seed);
    hw::Machine client(sim, clientConfig(cfg), "client", rng.u64());
    hw::Machine server(sim, cfg.server, "server", rng.u64());
    net::Link toServer(sim, rng.fork(), cfg.network);
    net::Link toClient(sim, rng.fork(), cfg.network);
    EchoService echo(server, toClient, serverWork(cfg),
                     std::min<std::size_t>(
                         server.threadCount(),
                         static_cast<std::size_t>(cfg.memcached.workers)));
    loadgen::OpenLoopGenerator gen(sim, client, toServer, echo, cfg.gen,
                                   rng.fork());
    echo.bind(gen);
    gen.start();
    Rung r;
    r.name = "loadgen";
    r.meanDepth = runSampled(sim, gen.windowEnd() + kDrain);
    r.events = sim.executedEvents();
    r.requests = gen.recorder().sent();
    r.messages = toServer.messagesSent() + toClient.messagesSent();
    return r;
}

Rung
fullRung(const core::ExperimentConfig &cfg, std::uint64_t seed)
{
    core::ExperimentConfig c = cfg;
    c.seed = seed;
    const core::RunResult res = core::runOnce(c);
    Rung r;
    r.name = "full";
    r.events = res.events;
    r.requests = res.sent;
    return r;
}

} // namespace

std::vector<Rung>
runLadder(const core::ExperimentConfig &cfg, int reps, SpanLog &spans)
{
    const char *names[] = {"queue", "hw", "net", "loadgen", "full"};
    constexpr int kRungs = 5;
    std::vector<std::vector<double>> secs(kRungs);
    std::vector<Rung> out(kRungs);
    for (int rep = 0; rep < reps; ++rep) {
        // Interleave the rungs so host drift hits every rung alike.
        for (int k = 0; k < kRungs; ++k) {
            const std::uint64_t seed = cfg.seed + 7919 * (k + 1);
            const auto t0 = Clock::now();
            Rung r;
            switch (k) {
              case 0:
                r = HandFlow(cfg, HandFlow::Layer::Queue, seed).run(names[k]);
                break;
              case 1:
                r = HandFlow(cfg, HandFlow::Layer::Hw, seed).run(names[k]);
                break;
              case 2:
                r = HandFlow(cfg, HandFlow::Layer::Net, seed).run(names[k]);
                break;
              case 3:
                r = loadgenRung(cfg, seed);
                break;
              default:
                r = fullRung(cfg, seed);
                break;
            }
            // Construction included: runOnce pays it too.
            r.hostSeconds = secondsSince(t0);
            spans.add(std::string("rung ") + names[k], "ladder",
                      hostThreadId(), t0, Clock::now(),
                      {{"events", static_cast<double>(r.events)},
                       {"requests", static_cast<double>(r.requests)}});
            secs[static_cast<std::size_t>(k)].push_back(r.hostSeconds);
            out[static_cast<std::size_t>(k)] = r;
        }
    }
    for (int k = 0; k < kRungs; ++k) {
        out[static_cast<std::size_t>(k)].hostSeconds =
            tpv::stats::Summary::of(secs[static_cast<std::size_t>(k)])
                .median;
    }
    return out;
}

double
governorNsPerChoose(const core::ExperimentConfig &cfg, std::uint64_t seed,
                    long pairs)
{
    const hw::CStateTable table(cfg.client);
    hw::MenuGovernor gov(table);
    Rng rng(seed);
    // An idle trace shaped like one client thread's: the armed
    // next-send timer sits a per-thread gap out, and the core usually
    // wakes early for a reply one round trip later.
    const double gap = 1e9 * cfg.gen.threads / cfg.gen.qps;
    const double rtt = 2.0 * static_cast<double>(cfg.network.baseLatency) +
                       static_cast<double>(serverWork(cfg));
    std::vector<std::pair<Time, Time>> trace(4096);
    for (auto &[hint, idle] : trace) {
        hint = static_cast<Time>(rng.exponential(gap)) + 1;
        idle = std::min<Time>(hint,
                              static_cast<Time>(rng.exponential(rtt)) + 1);
    }
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (long i = 0; i < pairs; ++i) {
        const auto &[hint, idle] =
            trace[static_cast<std::size_t>(i) & (trace.size() - 1)];
        sink += static_cast<std::uint64_t>(gov.choose(hint).exitLatency);
        gov.recordIdle(idle);
    }
    const double ns = secondsSince(t0) * 1e9 / static_cast<double>(pairs);
    // Keep the loop's results observable so it cannot be elided.
    if (sink == 0x5eed)
        std::fprintf(stderr, " ");
    return ns;
}

} // namespace perfbench
