/**
 * @file
 * Generator self-check demo: run the same Memcached study on LP and
 * HP clients and apply the Lancet-style validity checks (paper
 * Section VII) — arrival-distribution fidelity, latency stationarity,
 * sample independence — plus the OrderSage-style order-effect screen
 * over the repetition series.
 *
 *   $ ./build/examples/generator_selfcheck
 */

#include <cstdio>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "loadgen/openloop.hh"
#include "loadgen/selfcheck.hh"
#include "stats/dependence.hh"

using namespace tpv;

namespace {

/** One run with direct access to the generator's recorder. */
void
checkClient(const hw::HwConfig &clientCfg, loadgen::SendMode sendMode,
            loadgen::CompletionMode completion)
{
    Simulator sim;
    Rng rng(1234);

    hw::HwConfig widened = clientCfg;
    widened.cores = 40;
    hw::Machine client(sim, widened, "client", rng.u64());
    net::Link up(sim, rng.fork());
    net::Link down(sim, rng.fork());

    auto cfg = core::ExperimentConfig::forMemcached(100e3);
    loadgen::OpenLoopParams p = cfg.gen;
    p.sendMode = sendMode;
    p.completion = completion;
    p.warmup = msec(50);
    p.duration = msec(500);

    // Wire a standalone generator + memcached pair.
    struct Door : net::Endpoint
    {
        net::Endpoint *t = nullptr;
        void onMessage(const net::Message &m) override { t->onMessage(m); }
    } door;
    loadgen::OpenLoopGenerator gen(sim, client, up, door, p, rng.fork());
    hw::Machine server(sim, hw::HwConfig::serverBaseline(), "server",
                       rng.u64());
    svc::MemcachedServer mc(sim, server, down, gen, rng.fork());
    door.t = &mc;

    std::vector<double> sendGaps;
    loadgen::watchSendGaps(up, gen.recorder(), sendGaps);
    gen.start();
    sim.runUntil(gen.windowEnd() + msec(50));

    std::printf("--- %s, %s sends, %s completions ---\n",
                clientCfg.name.c_str(), loadgen::toString(sendMode),
                loadgen::toString(completion));
    const auto rep = loadgen::runSelfCheck(gen.recorder(), sendGaps);
    std::printf("%s", rep.summary().c_str());
    std::printf("verdict: %s\n\n",
                rep.allOk() ? "measurements trustworthy"
                            : "REJECT RUN (Lancet would re-measure)");
}

} // namespace

int
main()
{
    std::printf("Lancet-style generator self-checks, Memcached @ 100K\n\n");
    // The cleanest setup: tuned client, fully polling generator.
    checkClient(hw::HwConfig::clientHP(), loadgen::SendMode::BusyWait,
                loadgen::CompletionMode::Polling);
    // mutilate's shape on tuned hardware: timer-driven epoll loop.
    checkClient(hw::HwConfig::clientHP(), loadgen::SendMode::BlockWait,
                loadgen::CompletionMode::Blocking);
    // The paper's risky row: the same loop on an untuned client.
    checkClient(hw::HwConfig::clientLP(), loadgen::SendMode::BlockWait,
                loadgen::CompletionMode::Blocking);

    // Order-effect screen across a repetition series (OrderSage).
    std::printf("--- order-effect screen over 20 repetitions ---\n");
    auto cfg = core::ExperimentConfig::forMemcached(100e3);
    cfg.gen.warmup = msec(20);
    cfg.gen.duration = msec(150);
    core::RunnerOptions opt;
    opt.runs = 20;
    const auto runs = core::runMany(cfg, opt);
    const auto oe = stats::orderEffect(runs.avgPerRun);
    std::printf("Spearman(position, run-average): rho=%.3f p=%.3f -> %s\n",
                oe.rho, oe.pValue,
                oe.orderEffectAt(0.05)
                    ? "ORDER EFFECT (randomise execution order)"
                    : "no order effect (runs independent)");
    std::printf("\nSimulated repetitions rebuild the environment from "
                "scratch, so no order\neffect exists by construction — "
                "on real hardware this screen guards the\n'ordering "
                "trap' (Duplyakin et al., ATC'23).\n");
    return 0;
}
