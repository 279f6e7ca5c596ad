#include "core/experiment.hh"

#include <algorithm>
#include <memory>
#include <tuple>

#include "loadgen/openloop.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace tpv {
namespace core {

const char *
toString(WorkloadKind k)
{
    switch (k) {
      case WorkloadKind::Memcached:
        return "memcached";
      case WorkloadKind::HdSearch:
        return "hdsearch";
      case WorkloadKind::SocialNetwork:
        return "socialnetwork";
      case WorkloadKind::Synthetic:
        return "synthetic";
    }
    return "?";
}

ExperimentConfig
ExperimentConfig::forMemcached(double qps)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Memcached;
    cfg.gen.qps = qps;
    // 4 client machines x 10 event-loop threads (160 connections in
    // the paper), modelled as 40 generator threads.
    cfg.gen.threads = 40;
    cfg.gen.sendMode = loadgen::SendMode::BlockWait;
    cfg.gen.completion = loadgen::CompletionMode::Blocking;
    cfg.gen.measure = loadgen::MeasurePoint::InApp;
    // ETC request model: mostly GETs, GEV-sized keys.
    const svc::KeyspaceModel etc = cfg.memcached.etc;
    cfg.gen.requestModel = [etc](Rng &rng, net::Message &req) {
        const svc::MemcachedOp op = etc.sampleOp(rng);
        req.kind = static_cast<std::uint8_t>(op);
        const std::uint32_t key = etc.sampleKeyBytes(rng);
        const std::uint32_t value =
            op == svc::MemcachedOp::Set ? etc.sampleValueBytes(rng) : 0;
        req.bytes = etc.requestBytes(op, key, value);
    };
    cfg.label = "memcached";
    return cfg;
}

ExperimentConfig
ExperimentConfig::forHdSearch(double qps)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::HdSearch;
    cfg.gen.qps = qps;
    cfg.gen.threads = 4; // MicroSuite client: few polling loops
    cfg.gen.sendMode = loadgen::SendMode::BusyWait;
    cfg.gen.completion = loadgen::CompletionMode::Blocking;
    cfg.gen.measure = loadgen::MeasurePoint::InApp;
    cfg.gen.requestBytes = 512; // query feature vector
    cfg.label = "hdsearch";
    return cfg;
}

ExperimentConfig
ExperimentConfig::forSocialNetwork(double qps)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::SocialNetwork;
    cfg.gen.qps = qps;
    cfg.gen.threads = 10; // wrk2 with 20 connections over 10 cores
    cfg.gen.sendMode = loadgen::SendMode::BlockWait;
    cfg.gen.completion = loadgen::CompletionMode::Blocking;
    cfg.gen.measure = loadgen::MeasurePoint::InApp;
    cfg.gen.requestBytes = 256; // read-user-timeline request
    cfg.label = "socialnetwork";
    return cfg;
}

ExperimentConfig
ExperimentConfig::forSynthetic(double qps, Time addedDelay)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Synthetic;
    cfg.gen.qps = qps;
    cfg.gen.threads = 40; // same client fleet as the memcached study
    cfg.gen.sendMode = loadgen::SendMode::BlockWait;
    cfg.gen.completion = loadgen::CompletionMode::Blocking;
    cfg.gen.measure = loadgen::MeasurePoint::InApp;
    cfg.synthetic.addedDelay = addedDelay;
    cfg.label = "synthetic";
    return cfg;
}

void
applyTopology(ExperimentConfig &cfg, const svc::TopologyShape &shape)
{
    cfg.hdsearch.fanout = shape.shards;
    cfg.hdsearch.replicas = shape.replicas;
    cfg.hdsearch.hedgeDelay = shape.hedgeDelay;
    cfg.hdsearch.hedgePolicy = shape.policy;
    cfg.memcached.shards = shape.shards;
    cfg.memcached.replicas = shape.replicas;
    cfg.memcached.hedgeDelay = shape.hedgeDelay;
    cfg.memcached.hedgePolicy = shape.policy;
    cfg.hdsearch.traffic = shape.traffic;
    cfg.memcached.traffic = shape.traffic;
    if (shape.cache.enabled())
        applyCacheShape(cfg, shape.cache);
}

void
applyTrafficPolicy(ExperimentConfig &cfg, const svc::TrafficPolicy &policy)
{
    cfg.hdsearch.traffic = policy;
    cfg.memcached.traffic = policy;
}

void
applyCacheShape(ExperimentConfig &cfg, const svc::CacheShape &shape)
{
    shape.validate();
    cfg.memcached.cache = shape;
    cfg.memcached.etc.keys = shape.keys;
    cfg.memcached.etc.skew = shape.skew;
    if (!shape.enabled() || cfg.workload != WorkloadKind::Memcached)
        return;
    // Keyed ETC request model: same op/key-size draws as the unkeyed
    // one, plus the Zipf rank on the wire; SET values are a property
    // of the key (valueBytesForKey) so the cache, the backing store
    // and the generator agree on every key's size.
    const svc::KeyspaceModel etc = cfg.memcached.etc;
    const svc::ZipfSampler zipf(shape.keys, shape.skew);
    cfg.gen.requestModel = [etc, zipf](Rng &rng, net::Message &req) {
        const svc::MemcachedOp op = etc.sampleOp(rng);
        req.kind = static_cast<std::uint8_t>(op);
        req.key = static_cast<std::uint32_t>(zipf(rng));
        const std::uint32_t keyBytes = etc.sampleKeyBytes(rng);
        const std::uint32_t value =
            op == svc::MemcachedOp::Set ? etc.valueBytesForKey(req.key)
                                        : 0;
        req.bytes = etc.requestBytes(op, keyBytes, value);
    };
}

namespace {

/**
 * Late-bound endpoint: lets the generator be constructed before the
 * service it sends to (they reference each other).
 */
struct Relay : net::Endpoint
{
    net::Endpoint *target = nullptr;

    void
    onMessage(const net::Message &m) override
    {
        TPV_ASSERT(target != nullptr, "relay used before binding");
        target->onMessage(m);
    }
};

} // namespace

RunResult
runOnce(const ExperimentConfig &cfg)
{
    Simulator sim;
    Rng rootRng(cfg.seed);

    // The paper's client side is several machines (e.g. 4 mutilate
    // clients); we model them as one wide machine with a core per
    // generator thread (plus a completion-thread bank for busy-wait
    // senders with blocking completions).
    hw::HwConfig clientCfg = cfg.client;
    int neededCores = cfg.gen.threads;
    if (cfg.gen.sendMode == loadgen::SendMode::BusyWait &&
        cfg.gen.completion == loadgen::CompletionMode::Blocking) {
        neededCores *= 2;
    }
    clientCfg.cores = std::max(clientCfg.cores, neededCores);
    hw::Machine clientMachine(sim, clientCfg, "client", rootRng.u64());
    net::Link clientToServer(sim, rootRng.fork(), cfg.network);
    net::Link serverToClient(sim, rootRng.fork(), cfg.network);

    Relay serverDoor;
    loadgen::OpenLoopGenerator gen(sim, clientMachine, clientToServer,
                                   serverDoor, cfg.gen, rootRng.fork());

    // Service construction; single-tier services get their own server
    // machine, the multi-tier clusters build their machines inside.
    std::unique_ptr<hw::Machine> serverMachine;
    std::unique_ptr<net::Endpoint> service;
    svc::ServiceGraph *serviceGraph = nullptr;
    auto adopt = [&](auto srv) {
        serviceGraph = &srv->graph();
        service = std::move(srv);
    };
    switch (cfg.workload) {
      case WorkloadKind::Memcached:
        if (cfg.memcached.shards != 1 || cfg.memcached.replicas != 1 ||
            cfg.memcached.cache.enabled()) {
            // Widened (or keyed finite-cache) shape: the
            // key-hash-routed cluster, which fatal()s on a shard or
            // replica count below 1 and without a cache shape (it
            // routes on the key).
            adopt(std::make_unique<svc::MemcachedCluster>(
                sim, cfg.server, serverToClient, gen, rootRng.fork(),
                cfg.memcached));
            break;
        }
        serverMachine = std::make_unique<hw::Machine>(
            sim, cfg.server, "server", rootRng.u64());
        adopt(std::make_unique<svc::MemcachedServer>(
            sim, *serverMachine, serverToClient, gen, rootRng.fork(),
            cfg.memcached));
        break;
      case WorkloadKind::Synthetic:
        serverMachine = std::make_unique<hw::Machine>(
            sim, cfg.server, "server", rootRng.u64());
        adopt(std::make_unique<svc::SyntheticServer>(
            sim, *serverMachine, serverToClient, gen, rootRng.fork(),
            cfg.synthetic));
        break;
      case WorkloadKind::HdSearch:
        adopt(std::make_unique<svc::HdSearchCluster>(
            sim, cfg.server, serverToClient, gen, rootRng.fork(),
            cfg.hdsearch));
        break;
      case WorkloadKind::SocialNetwork:
        adopt(std::make_unique<svc::SocialNetworkApp>(
            sim, cfg.server, serverToClient, gen, rootRng.fork(),
            cfg.socialnet));
        break;
    }
    serverDoor.target = service.get();

    // Flight recorder. The client links' wire spans are hooked here
    // (the graph owns only its internal links).
    std::unique_ptr<obs::TraceRecorder> trace;
    if (cfg.obs.trace) {
        trace = std::make_unique<obs::TraceRecorder>(cfg.obs, cfg.seed);
        serviceGraph->setTrace(trace.get());
        auto wireObs = [&sim, tr = trace.get()](const net::Message &m,
                                                Time delay) {
            tr->span(obs::SpanKind::Wire, sim.now(), sim.now() + delay,
                     svc::localRoot(m), {}, m.bytes);
        };
        clientToServer.setObserver(wireObs);
        serverToClient.setObserver(wireObs);
    }

    gen.start();
    // Run the measured window, then drain in-flight requests without
    // accepting new samples (the recorder window is already closed).
    const Time drain = msec(50);
    const Time horizon = gen.windowEnd() + drain;

    // Fault injection: armed only for a non-empty plan, so healthy
    // runs schedule no extra events and stay bit-identical to
    // pre-fault builds. The injector outlives runUntil() — its
    // scheduled window events call back into it.
    std::unique_ptr<fault::Injector> injector;
    if (!cfg.faultPlan.empty()) {
        injector = std::make_unique<fault::Injector>(sim, *serviceGraph,
                                                     cfg.faultPlan);
        injector->arm(horizon);
    }

    sim.runUntil(horizon);

    // Export hook: fires once per completed run.
    if (cfg.obs.sink)
        cfg.obs.sink(trace.get(), nullptr);

    RunResult out;
    std::tie(out.latency, out.sendLateness) =
        gen.recorder().summarizeInPlace();
    out.sent = gen.recorder().sent();
    out.received = gen.recorder().received();
    if (cfg.sloLatency > 0) {
        // Goodput numerator: recorded latencies are in us, now sorted
        // ascending, so the SLO cut is one binary search.
        const auto &xs = gen.recorder().latencies();
        const double sloUs =
            static_cast<double>(cfg.sloLatency) / 1000.0;
        out.receivedWithinSlo = static_cast<std::uint64_t>(
            std::upper_bound(xs.begin(), xs.end(), sloUs) -
            xs.begin());
    }
    out.clientHw = clientMachine.stats();
    if (serverMachine)
        out.serverHw = serverMachine->stats();
    out.service = serviceGraph->stats();
    out.events = sim.executedEvents();
    return out;
}

} // namespace core
} // namespace tpv
