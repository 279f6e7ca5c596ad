/**
 * @file
 * Tail-sample explainer: why were the slowest requests slow?
 *
 * A p99 number says a tail exists; a trace says what it is made of.
 * This example runs a hedged HDSearch fan-out with a replica killed
 * mid-window, keeps the N slowest requests regardless of sampling
 * (ObsOptions::tailN), and prints each one's span breakdown — which
 * shard straggled, how long the sub-request sat in a worker queue,
 * whether a hedge fired, whether the lane crossed a fault window. It
 * also writes the full Chrome trace-event JSON, loadable directly in
 * Perfetto (https://ui.perfetto.dev) or chrome://tracing.
 *
 *   $ ./build/examples/trace_tail [trace.json]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/trace.hh"
#include "svc/topology.hh"

using namespace tpv;

int
main(int argc, char **argv)
{
    const std::string path = argc > 1 ? argv[1] : "trace.json";

    // Hedged fan-out with a mid-window replica kill: the tail is a
    // mix of straggling shards, failover detection and hedge races —
    // exactly what a per-request timeline disentangles.
    auto cfg = core::ExperimentConfig::forHdSearch(20000);
    cfg.gen.warmup = msec(5);
    cfg.gen.duration = msec(40);
    core::applyTopology(cfg, svc::TopologyShape{4, 2, usec(300)});
    cfg.faultPlan = fault::FaultPlan::replicaKill(
        "hds-bucket", 0, msec(10), msec(10), usec(500));
    cfg.seed = 42;

    cfg.obs.trace = true;
    cfg.obs.sampleEveryN = 16; // sparse head sampling for the JSON...
    cfg.obs.tailN = 5;         // ...but the 5 slowest always survive

    std::vector<obs::TraceRecorder::TailRoot> tail;
    std::string json;
    std::uint64_t recorded = 0;
    cfg.obs.sink = [&](const obs::TraceRecorder *tr,
                       const obs::MetricsRegistry *) {
        tail = tr->slowestRoots(5);
        json = tr->exportJson();
        recorded = tr->recorded();
    };

    const core::RunResult r = core::runOnce(cfg);

    std::printf("HDSearch @ 20k QPS, 4 shards x 2 replicas, 300us "
                "hedge,\nbucket replica 0 killed 10..20ms (500us "
                "detection)\n\n");
    std::printf("run: %llu requests, avg %.1fus, p99 %.1fus, %llu "
                "spans recorded\n\n",
                static_cast<unsigned long long>(r.received), r.avgUs(),
                r.p99Us(),
                static_cast<unsigned long long>(recorded));

    for (std::size_t i = 0; i < tail.size(); ++i) {
        const auto &t = tail[i];
        const double totalUs =
            static_cast<double>(t.root.end - t.root.start) / 1000.0;
        std::printf("#%zu slowest: request %llu, %.1fus end-to-end\n",
                    i + 1,
                    static_cast<unsigned long long>(t.root.rootId),
                    totalUs);
        for (const auto &s : t.spans) {
            const double offUs =
                static_cast<double>(s.start - t.root.start) / 1000.0;
            const double durUs =
                static_cast<double>(s.end - s.start) / 1000.0;
            // tier 0xff = the client side of the wire.
            char where[32];
            if (s.tier == 0xff)
                std::snprintf(where, sizeof(where), "client");
            else if (s.shard >= 0 && s.replica >= 0)
                std::snprintf(where, sizeof(where), "t%u s%d r%d",
                              s.tier, s.shard, s.replica);
            else if (s.shard >= 0)
                std::snprintf(where, sizeof(where), "t%u s%d", s.tier,
                              s.shard);
            else
                std::snprintf(where, sizeof(where), "t%u", s.tier);
            if (obs::isDuration(s.kind)) {
                std::printf("  +%8.1fus %-12s %-10s %8.1fus  arg=%u\n",
                            offUs, obs::toString(s.kind), where, durUs,
                            s.arg);
            } else {
                std::printf("  +%8.1fus %-12s %-10s %9s  arg=%u\n",
                            offUs, obs::toString(s.kind), where,
                            "instant", s.arg);
            }
        }
        std::printf("\n");
    }

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu bytes) — load it in "
                "https://ui.perfetto.dev\n",
                path.c_str(), json.size());
    return 0;
}
