/**
 * @file
 * The repository benchmark: one workload per invocation, untraced for
 * the end-to-end metrics or traced for the per-layer ones.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--reference <file>] [--out <dir>] [--scale tiny]
 *             [--git-sha <sha>] [--src-digest <hex>]
 *   perfbench --workload <name> --write-reference <file>
 *
 * Phases: set-up (materialise the cells, spin up the worker pool, run
 * every cell once at a reference seed and compare its fingerprint with
 * the stored reference; five times, alternating the two reference
 * seeds, so each seed is checked against the reference and against a
 * same-seed repeat), then timed passes over the workload's
 * grid until --seconds have elapsed. Every result line and the final
 * JSON object go to stdout; the last stdout line is the JSON.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "core/runner.hh"
#include "core/scheduler.hh"
#include "obs/trace.hh"
#include "stats/descriptive.hh"
#include "stats/sample_size.hh"
#include "stats/shapiro_wilk.hh"

namespace perfbench {
namespace {

namespace core = tpv::core;

/** Reference seeds: the seed the workloads were tuned on, and one held
 *  out from tuning. */
constexpr std::uint64_t kRefSeeds[2] = {1, 104729};

/**
 * CPU seconds the host-speed probe takes on the reference host. Every
 * end-to-end time is scaled by kProbeRefCpuS / (the probe's CPU
 * seconds around the timed unit), i.e. reported at reference host
 * speed: on a shared host the probe swings by tens of percent within
 * seconds, and the simulator's times swing with it.
 */
constexpr double kProbeRefCpuS = 0.3;

/** Paper repetition count the stats layer analyses per cell. */
constexpr std::size_t kPaperReps = 50;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string reference;
    std::string writeReference;
    std::string outDir = ".";
    std::string gitSha = "unknown";
    std::string srcDigest = "unknown";
    double scale = 1.0;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--reference "
                 "<file>] [--out <dir>] [--scale tiny]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = v;
        } else if (key == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0')
                usage("--seed takes a whole number");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || a.seconds < 0 || a.seconds > 3600)
                usage("--seconds takes a number in [0, 3600]");
        } else if (key == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (key == "--reference") {
            a.reference = v;
        } else if (key == "--write-reference") {
            a.writeReference = v;
        } else if (key == "--out") {
            a.outDir = v;
        } else if (key == "--git-sha") {
            a.gitSha = v;
        } else if (key == "--src-digest") {
            a.srcDigest = v;
        } else if (key == "--scale") {
            if (v != "tiny" && v != "full")
                usage("--scale takes tiny or full");
            a.scale = v == "tiny" ? 0.1 : 1.0;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Refuse builds whose timings would mislead: assertions or sanitizers
 *  on, or an unoptimised build type. @return the reason, or "". */
std::string
misconfiguredBuild()
{
#ifndef NDEBUG
    return "assertions are enabled (a Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "a sanitizer is compiled in";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return "a sanitizer is compiled in";
#endif
#endif
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        return "build type '" + type + "' is not Release/RelWithDebInfo";
    return "";
}

std::string
loadAverage()
{
    std::ifstream f("/proc/loadavg");
    double a = 0, b = 0, c = 0;
    if (!(f >> a >> b >> c))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%.2f, %.2f, %.2f]", a, b, c);
    return buf;
}

/** Peak resident set of this process image. VmHWM, not ru_maxrss:
 *  the latter carries the pre-exec high-water mark of whatever forked
 *  us (run.py's Python process, say) across execve. */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string key;
    while (f >> key) {
        if (key == "VmHWM:") {
            double kib = 0;
            f >> kib;
            return kib / 1024.0;
        }
        f.ignore(1 << 12, '\n');
    }
    return 0;
}

double
median(const std::vector<double> &xs)
{
    return xs.empty() ? 0 : tpv::stats::Summary::of(xs).median;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One run to execute: a cell at a seed, optionally traced. */
struct Task
{
    std::size_t cell = 0;
    std::uint64_t seed = 0;
};

using RefMap = std::map<std::pair<std::uint64_t, std::string>,
                        std::uint64_t>;

/** The benchmark's run engine: the workload's cells on one Scheduler
 *  (the pool runManyBatch uses), timing each runOnce. */
class Engine
{
  public:
    Engine(const Workload &wl, int workers, SpanLog &spans)
        : wl_(wl), sched_(workers), spans_(spans)
    {
    }

    /**
     * Run @p tasks; @p obs, when set, switches the program's flight
     * recorder on (1/64 head sampling) and counts recorded spans into
     * it.
     */
    std::vector<RunRecord>
    run(const std::vector<Task> &tasks, const char *phase,
        std::atomic<std::uint64_t> *obs = nullptr)
    {
        std::vector<RunRecord> out(tasks.size());
        sched_.forEach(tasks.size(), [&](std::size_t i) {
            const Task &t = tasks[i];
            core::ExperimentConfig cfg = wl_.cells[t.cell].cfg;
            cfg.seed = t.seed;
            if (obs) {
                cfg.obs.trace = true;
                cfg.obs.sampleEveryN = 64;
                cfg.obs.tailN = 0;
                cfg.obs.sink = [obs](const tpv::obs::TraceRecorder *tr,
                                     const tpv::obs::MetricsRegistry *) {
                    if (tr)
                        obs->fetch_add(tr->recorded());
                };
            }
            RunRecord &rec = out[i];
            rec.cell = t.cell;
            rec.seed = t.seed;
            const auto t0 = Clock::now();
            const double cpu0 = threadCpuSeconds();
            try {
                rec.result = core::runOnce(cfg);
            } catch (const std::exception &e) {
                rec.threw = true;
                std::fprintf(stderr, "run %s seed %llu threw: %s\n",
                             wl_.cells[t.cell].label.c_str(),
                             static_cast<unsigned long long>(t.seed),
                             e.what());
            }
            rec.cpuMs = (threadCpuSeconds() - cpu0) * 1000.0;
            const auto t1 = Clock::now();
            rec.hostMs =
                std::chrono::duration<double, std::milli>(t1 - t0).count();
            spans_.add(wl_.cells[t.cell].label, phase, hostThreadId(), t0,
                       t1,
                       {{"seed", static_cast<double>(t.seed)},
                        {"events", static_cast<double>(rec.result.events)},
                        {"requests", static_cast<double>(rec.result.sent)}});
        });
        return out;
    }

  private:
    const Workload &wl_;
    core::Scheduler sched_;
    SpanLog &spans_;
};

bool
loadReference(const std::string &path, RefMap *out)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream in(line);
        std::uint64_t seed = 0;
        std::string label, fp;
        if (!(in >> seed >> label >> fp))
            return false;
        (*out)[{seed, label}] = std::strtoull(fp.c_str(), nullptr, 16);
    }
    return !out->empty();
}

int
writeReference(const Args &a, const Workload &wl, Engine &engine)
{
    std::vector<Task> tasks;
    for (std::uint64_t seed : kRefSeeds) {
        for (std::size_t i = 0; i < wl.cells.size(); ++i)
            tasks.push_back({i, seed});
    }
    const auto runs = engine.run(tasks, "reference");
    std::FILE *f = std::fopen(a.writeReference.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", a.writeReference.c_str());
        return 2;
    }
    std::fprintf(f,
                 "# perfbench reference fingerprints for %s: "
                 "<seed> <cell> <fingerprint>\n",
                 wl.name.c_str());
    for (const RunRecord &r : runs) {
        if (r.threw) {
            std::fclose(f);
            std::fprintf(stderr, "reference run threw\n");
            return 2;
        }
        std::fprintf(f, "%llu %s %s\n",
                     static_cast<unsigned long long>(r.seed),
                     wl.cells[r.cell].label.c_str(),
                     hex(fingerprint(r.result)).c_str());
    }
    std::fclose(f);
    std::printf("wrote %zu reference fingerprints to %s\n", runs.size(),
                a.writeReference.c_str());
    return 0;
}

/** A metric as printed: value, unit and the base it was measured on. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string base;
};

/** Sums of simulated counters over a set of runs. */
struct Totals
{
    double runs = 0, sent = 0, events = 0, wakes = 0, exitNs = 0,
           freqTransitions = 0, subRequests = 0, duplicates = 0,
           cacheHits = 0, cacheLookups = 0, killedRuns = 0, failedOver = 0;
    std::vector<double> latenessP99;

    void
    add(const RunRecord &r, const Cell &c)
    {
        if (r.threw)
            return;
        const core::RunResult &x = r.result;
        const tpv::svc::ServiceStats &s = x.service;
        runs += 1;
        sent += static_cast<double>(x.sent);
        events += static_cast<double>(x.events);
        wakes += static_cast<double>(x.clientHw.wakes);
        exitNs += static_cast<double>(x.clientHw.exitLatencyPaid);
        freqTransitions += static_cast<double>(
            x.clientHw.freqTransitions + x.serverHw.freqTransitions);
        subRequests += static_cast<double>(s.subRequestsSent);
        duplicates += static_cast<double>(s.hedgesSent + s.tiedSent +
                                          s.requestsRetried);
        cacheHits += static_cast<double>(s.cacheHits);
        cacheLookups += static_cast<double>(s.cacheHits + s.cacheMisses);
        if (!c.healthy) {
            killedRuns += 1;
            failedOver += static_cast<double>(s.requestsFailedOver);
        }
        latenessP99.push_back(x.sendLateness.p99);
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
fmtBase(const char *f, double v)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
}

int
benchMain(int argc, char **argv)
{
    const auto procStart = Clock::now();
    const Args a = parseArgs(argc, argv);
    const std::string bad = misconfiguredBuild();
    if (!bad.empty()) {
        std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                     bad.c_str());
        return 2;
    }
    Workload wl;
    if (!makeWorkload(a.workload, a.scale, &wl))
        usage(("unknown workload " + a.workload).c_str());

    const std::string loadBefore = loadAverage();
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const int workers = static_cast<int>(std::min(4u, nproc));
    SpanLog spans(a.trace != 0);
    Engine engine(wl, workers, spans);

    if (!a.writeReference.empty())
        return writeReference(a, wl, engine);

    RefMap reference;
    const bool checkReference = a.scale == 1.0;
    if (checkReference && !loadReference(a.reference, &reference)) {
        std::fprintf(stderr,
                     "perfbench: cannot read reference fingerprints '%s'\n",
                     a.reference.c_str());
        return 2;
    }

    std::uint64_t attempted = 0, failed = 0, refChecked = 0;
    std::uint64_t conservationViolations = 0, mismatches = 0, threw = 0;
    auto account = [&](const RunRecord &r, const Cell &c) {
        ++attempted;
        if (r.threw) {
            ++threw;
            ++failed;
            return false;
        }
        // Root conservation: a healthy open-loop run answers every
        // request it sent.
        if (c.healthy && r.result.sent != r.result.received) {
            ++conservationViolations;
            ++failed;
            std::fprintf(stderr, "conservation: %s seed %llu sent %llu "
                                 "received %llu\n",
                         c.label.c_str(),
                         static_cast<unsigned long long>(r.seed),
                         static_cast<unsigned long long>(r.result.sent),
                         static_cast<unsigned long long>(
                             r.result.received));
            return false;
        }
        return true;
    };
    auto mismatch = [&](const RunRecord &r, const char *against) {
        ++mismatches;
        ++failed;
        std::fprintf(stderr, "fingerprint mismatch (%s): %s seed %llu\n",
                     against, wl.cells[r.cell].label.c_str(),
                     static_cast<unsigned long long>(r.seed));
    };

    // ---- set-up: materialise, spin up the pool, golden runs ----
    const int setups = a.scale == 1.0 ? 5 : 1;
    // A probe follows every set-up and every pass; a unit's host-speed
    // factor comes from the probes on either side of it.
    std::vector<double> probes;
    auto speedFactor = [&probes](std::size_t unit) {
        const double around =
            unit == 0 ? probes[0] : (probes[unit - 1] + probes[unit]) / 2;
        return kProbeRefCpuS / around;
    };
    std::vector<double> setupSecs, setupNorm;
    std::vector<std::vector<std::uint64_t>> setupFps;
    std::uint64_t setupDigest = kDigestSeed;
    for (int k = 0; k < setups; ++k) {
        const auto t0 = k == 0 ? procStart : Clock::now();
        Workload fresh;
        makeWorkload(a.workload, a.scale, &fresh);
        wl.cells = std::move(fresh.cells);
        std::vector<Task> tasks;
        for (std::size_t i = 0; i < wl.cells.size(); ++i) {
            const std::size_t ref = (i + static_cast<std::size_t>(k)) % 2;
            tasks.push_back({i, kRefSeeds[ref]});
        }
        const auto runs = engine.run(tasks, "setup");
        std::vector<std::uint64_t> fps;
        for (const RunRecord &r : runs) {
            const std::uint64_t fp =
                r.threw ? 0 : fingerprint(r.result);
            fps.push_back(fp);
            if (k == 0)
                setupDigest = mixDigest(setupDigest, fp);
            if (!account(r, wl.cells[r.cell]))
                continue;
            if (checkReference) {
                const auto it =
                    reference.find({r.seed, wl.cells[r.cell].label});
                ++refChecked;
                if (it == reference.end() || it->second != fp)
                    mismatch(r, "reference");
            }
            if (k >= 2 && setupFps[static_cast<std::size_t>(k - 2)]
                                  [fps.size() - 1] != fp)
                mismatch(r, "same-seed repeat");
        }
        setupFps.push_back(std::move(fps));
        const auto t1 = Clock::now();
        setupSecs.push_back(std::chrono::duration<double>(t1 - t0).count());
        probes.push_back(hostProbeCpuSeconds(workers));
        setupNorm.push_back(setupSecs.back() * speedFactor(probes.size() - 1));
        spans.add("setup " + std::to_string(k), "setup", hostThreadId(), t0,
                  t1, {{"runs", static_cast<double>(runs.size())}});
    }

    // ---- timed passes ----
    const std::size_t minRuns = 100;
    std::vector<RunRecord> timed;
    std::vector<double> passWall, passCpu, passFactor;
    std::uint64_t pass0Digest = kDigestSeed;
    std::vector<Task> pass0Tasks;
    std::vector<std::uint64_t> pass0Fps;
    const auto timedStart = Clock::now();
    for (int pass = 0; pass == 0 || secondsSince(timedStart) < a.seconds ||
                       timed.size() < minRuns;
         ++pass) {
        std::vector<Task> tasks;
        for (int rep = 0; rep < wl.repsPerPass; ++rep) {
            const std::uint64_t seed = core::deriveRunSeed(
                a.seed, pass * wl.repsPerPass + rep);
            for (std::size_t i = 0; i < wl.cells.size(); ++i)
                tasks.push_back({i, seed});
        }
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        auto runs = engine.run(tasks, "timed");
        const auto t1 = Clock::now();
        passCpu.push_back(processCpuSeconds() - cpu0);
        passWall.push_back(std::chrono::duration<double>(t1 - t0).count());
        probes.push_back(hostProbeCpuSeconds(workers));
        passFactor.push_back(speedFactor(probes.size() - 1));
        spans.add("pass " + std::to_string(pass), "timed", hostThreadId(),
                  t0, t1, {{"runs", static_cast<double>(runs.size())}});
        for (const RunRecord &r : runs) {
            account(r, wl.cells[r.cell]);
            if (pass == 0) {
                const std::uint64_t fp =
                    r.threw ? 0 : fingerprint(r.result);
                pass0Fps.push_back(fp);
                pass0Digest = mixDigest(pass0Digest, fp);
            }
        }
        if (pass == 0)
            pass0Tasks = tasks;
        timed.insert(timed.end(), std::make_move_iterator(runs.begin()),
                     std::make_move_iterator(runs.end()));
    }
    const double timedWall = secondsSince(timedStart);

    // Tiny windows hold too few requests for the paper's shapes, so
    // the self-test scale prints the claims without asserting them.
    const bool assertClaims = a.scale == 1.0;
    const std::vector<Claim> claims = checkClaims(wl, timed);
    bool claimsOk = true;
    for (const Claim &c : claims)
        claimsOk = claimsOk && (c.ok || !assertClaims);

    std::vector<double> runMs, runMsNorm, wallNorm, cpuNorm;
    Totals tot;
    const std::size_t perPass = wl.cells.size() * wl.repsPerPass;
    for (std::size_t i = 0; i < timed.size(); ++i) {
        runMs.push_back(timed[i].cpuMs);
        runMsNorm.push_back(timed[i].cpuMs * passFactor[i / perPass]);
        tot.add(timed[i], wl.cells[timed[i].cell]);
    }
    for (std::size_t p = 0; p < passWall.size(); ++p) {
        wallNorm.push_back(passWall[p] * passFactor[p]);
        cpuNorm.push_back(passCpu[p] * passFactor[p]);
    }
    const tpv::stats::Summary runMsSum = tpv::stats::Summary::of(runMsNorm);
    const tpv::stats::Summary runMsRaw = tpv::stats::Summary::of(runMs);

    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    std::vector<Rung> ladder;
    if (!a.trace) {
        metrics = {
            {"setup_s", median(setupNorm), "s",
             fmtBase("median of %.0f set-ups", setups) +
                 fmtBase(" of %.0f cells materialised + one golden run "
                         "each",
                         static_cast<double>(wl.cells.size())) +
                 fmtBase("; raw %.4g s", median(setupSecs))},
            {"wall_s", median(wallNorm), "s",
             fmtBase("median of %.0f timed passes",
                     static_cast<double>(passWall.size())) +
                 fmtBase(" of %.0f runs", static_cast<double>(perPass)) +
                 fmtBase("; raw %.4g s", median(passWall))},
            {"cpu_s", median(cpuNorm), "s",
             fmtBase("process CPU, median of %.0f timed passes",
                     static_cast<double>(passCpu.size())) +
                 fmtBase("; raw %.4g s", median(passCpu))},
            {"run_ms.p50", runMsSum.median, "ms",
             fmtBase("worker-thread CPU ms per runOnce, n=%.0f runs",
                     static_cast<double>(runMs.size())) +
                 fmtBase("; raw %.4g ms", runMsRaw.median)},
            {"run_ms.p90", runMsSum.p90, "ms",
             fmtBase("worker-thread CPU ms per runOnce, n=%.0f runs",
                     static_cast<double>(runMs.size())) +
                 fmtBase("; raw %.4g ms", runMsRaw.p90)},
            {"peak_rss_mb", peakRssMb(), "MB", "process peak resident set"},
        };
        notes.push_back(fmtBase("times above are at reference host speed: "
                                "x %.3f s / the host-speed probe's CPU s "
                                "around each set-up or pass",
                                kProbeRefCpuS) +
                        fmtBase(" (probe median %.4f s)", median(probes)));
    } else {
        const Cell &lc = wl.cells[wl.ladderCell];
        core::ExperimentConfig lcfg = lc.cfg;
        lcfg.seed = core::deriveRunSeed(a.seed, 0);
        ladder = runLadder(lcfg, a.scale == 1.0 ? 7 : 3, spans);
        const Rung &q = ladder[0], &h = ladder[1], &n = ladder[2],
                   &lg = ladder[3], &full = ladder[4];

        const auto tg = Clock::now();
        const long pairs = a.scale == 1.0 ? 2000000 : 200000;
        const double govNs = governorNsPerChoose(lcfg, a.seed, pairs);
        spans.add("governor choose+recordIdle", "hw", hostThreadId(), tg,
                  Clock::now(), {{"pairs", static_cast<double>(pairs)}});

        // stats: the paper's per-cell analysis over every cell's
        // per-run samples, cycled to the paper's 50 repetitions.
        std::vector<std::vector<const RunRecord *>> perCell(
            wl.cells.size());
        for (const RunRecord &r : timed) {
            if (!r.threw)
                perCell[r.cell].push_back(&r);
        }
        double statsMs = 0;
        for (std::size_t i = 0; i < wl.cells.size(); ++i) {
            if (perCell[i].empty())
                continue;
            core::RepeatedResult rr;
            for (std::size_t k = 0; k < kPaperReps; ++k) {
                const RunRecord *r = perCell[i][k % perCell[i].size()];
                rr.avgPerRun.push_back(r->result.avgUs());
                rr.p99PerRun.push_back(r->result.p99Us());
            }
            const auto t0 = Clock::now();
            double sink = rr.avgCI().lower + rr.p99CI().upper;
            sink += tpv::stats::shapiroWilk(rr.avgPerRun).w;
            sink += static_cast<double>(
                tpv::stats::confirmIterations(rr.avgPerRun).iterations);
            sink += static_cast<double>(
                tpv::stats::jainIterations(rr.avgPerRun));
            const auto t1 = Clock::now();
            statsMs +=
                std::chrono::duration<double, std::milli>(t1 - t0).count();
            spans.add("analysis " + wl.cells[i].label, "stats",
                      hostThreadId(), t0, t1, {{"result", sink}});
        }

        // core: runOnce's fixed cost, a window too short for any send.
        core::ExperimentConfig zero = lcfg;
        zero.gen.warmup = 0;
        zero.gen.duration = 1;
        std::vector<double> setupUs;
        for (int i = 0; i < 20; ++i) {
            const auto t0 = Clock::now();
            (void)core::runOnce(zero);
            const auto t1 = Clock::now();
            setupUs.push_back(
                std::chrono::duration<double, std::micro>(t1 - t0).count());
            spans.add("runOnce zero window", "core", hostThreadId(), t0, t1);
        }

        // obs: the program's flight recorder at 1/64 sampling against
        // the same pass untraced, alternating; outputs must not move.
        double cpuOff = 0, cpuOn = 0, obsSent = 0;
        std::atomic<std::uint64_t> obsSpans{0};
        for (int rep = 0; rep < 2; ++rep) {
            for (bool traced : {false, true}) {
                const double c0 = processCpuSeconds();
                const auto t0 = Clock::now();
                const auto runs = engine.run(
                    pass0Tasks, traced ? "obs traced" : "obs untraced",
                    traced ? &obsSpans : nullptr);
                (traced ? cpuOn : cpuOff) += processCpuSeconds() - c0;
                spans.add(traced ? "obs pass traced" : "obs pass untraced",
                          "obs", hostThreadId(), t0, Clock::now());
                for (std::size_t i = 0; i < runs.size(); ++i) {
                    if (!account(runs[i], wl.cells[runs[i].cell]))
                        continue;
                    if (fingerprint(runs[i].result) != pass0Fps[i])
                        mismatch(runs[i], traced ? "flight recorder on"
                                                 : "pass 0 repeat");
                    if (traced)
                        obsSent += static_cast<double>(runs[i].result.sent);
                }
            }
        }

        double busy = 0, wall = 0;
        for (const RunRecord &r : timed)
            busy += r.hostMs / 1000.0;
        for (double w : passWall)
            wall += w;

        const std::string ladderBase =
            "ladder on " + lc.label + fmtBase(", %.0f requests/rung",
                                              static_cast<double>(lg.requests));
        const double fullNs = full.nsPerRequest();
        const double hwNs = h.nsPerRequest() - q.nsPerRequest();
        const double svcNs = fullNs - lg.nsPerRequest();
        const std::string runsBase =
            fmtBase("%.0f timed runs", tot.runs) +
            fmtBase(", %.0f requests", tot.sent);
        metrics = {
            {"sim.ns_per_event",
             q.hostSeconds * 1e9 / std::max<double>(1, q.events), "ns/event",
             fmtBase("queue rung, %.0f events",
                     static_cast<double>(q.events)) +
                 fmtBase(", mean depth %.1f", q.meanDepth)},
            {"sim.events_per_req", ratio(tot.events, tot.sent), "events/req",
             runsBase},
            {"hw.ns_per_req", hwNs, "ns/req", ladderBase + " (hw - queue)"},
            {"hw.host_share", ratio(hwNs, fullNs), "ratio",
             ladderBase + " (hw rung cost / full run cost)"},
            {"hw.governor_ns_per_choose", govNs, "ns/call",
             fmtBase("%.0f choose+recordIdle pairs on the ladder cell's "
                     "client", static_cast<double>(pairs))},
            {"hw.client_wakes_per_req", ratio(tot.wakes, tot.sent),
             "wakes/req", runsBase},
            {"hw.exit_us_per_req", ratio(tot.exitNs / 1000.0, tot.sent),
             "us/req", runsBase},
            {"hw.freq_transitions_per_req",
             ratio(tot.freqTransitions, tot.sent), "transitions/req",
             runsBase + " (client + single-tier server machines)"},
            {"net.ns_per_msg",
             (n.hostSeconds - h.hostSeconds) * 1e9 /
                 std::max<double>(1, n.messages),
             "ns/msg",
             ladderBase + fmtBase(" (net - hw), %.0f messages",
                                  static_cast<double>(n.messages))},
            {"loadgen.ns_per_req", lg.nsPerRequest() - n.nsPerRequest(),
             "ns/req", ladderBase + " (loadgen - net)"},
            {"loadgen.lateness_p99_us", median(tot.latenessP99), "us",
             runsBase + ", median of per-run send-lateness p99"},
            {"svc.ns_per_req", svcNs, "ns/req",
             ladderBase + " (full - loadgen)"},
            {"svc.host_share", ratio(svcNs, fullNs), "ratio",
             ladderBase + " (svc cost / full run cost)"},
            {"svc.subreqs_per_req", ratio(tot.subRequests, tot.sent),
             "subreqs/req", runsBase},
            {"svc.dup_work_ratio", ratio(tot.duplicates, tot.subRequests),
             "ratio",
             fmtBase("(hedges + tied twins + retries) / %.0f sub-requests",
                     tot.subRequests)},
            {"svc.cache_hit_ratio", ratio(tot.cacheHits, tot.cacheLookups),
             "ratio", fmtBase("%.0f cache lookups", tot.cacheLookups)},
            {"fault.failed_over_per_run",
             ratio(tot.failedOver, tot.killedRuns), "failovers/run",
             fmtBase("%.0f killed-replica runs", tot.killedRuns)},
            {"obs.trace_overhead", ratio(cpuOn, cpuOff), "ratio",
             fmtBase("traced / untraced CPU s over 2 x %.0f runs at 1/64 "
                     "sampling",
                     static_cast<double>(pass0Tasks.size()))},
            {"obs.spans_per_req",
             ratio(static_cast<double>(obsSpans.load()), obsSent),
             "spans/req", fmtBase("%.0f traced requests", obsSent)},
            {"stats.analysis_ms", statsMs, "ms",
             fmtBase("avgCI+p99CI+shapiroWilk+confirm+jain over %.0f cells "
                     "x 50 samples",
                     static_cast<double>(wl.cells.size()))},
            {"core.run_setup_us", median(setupUs), "us",
             "median of 20 runOnce with a 1 ns window on the ladder cell"},
            {"core.worker_busy", ratio(busy, workers * wall), "ratio",
             fmtBase("sum of run times / (%.0f workers x timed wall)",
                     workers)},
        };
        for (const Rung &r : ladder) {
            char buf[200];
            std::snprintf(buf, sizeof buf,
                          "rung %-8s %9.1f ns/req  %7.2f events/req  "
                          "%8.1f ns/event  depth %.1f",
                          r.name.c_str(), r.nsPerRequest(),
                          ratio(static_cast<double>(r.events),
                                static_cast<double>(r.requests)),
                          r.hostSeconds * 1e9 /
                              std::max<double>(1, r.events),
                          r.meanDepth);
            notes.push_back(buf);
        }
        notes.push_back(fmtBase("timed-phase CPU s per pass with benchmark "
                                "spans on: %.4f (compare cpu_s of the "
                                "untraced run)",
                                median(passCpu)));
    }

    // ---- report ----
    const bool correct = failed == 0 && claimsOk;
    std::ostringstream meta;
    meta << "{\"workload\": \"" << wl.name << "\", \"seed\": " << a.seed
         << ", \"seconds\": " << a.seconds << ", \"trace\": " << a.trace
         << ", \"scale\": " << a.scale << ", \"nproc\": " << nproc
         << ", \"workers\": " << workers
         << ", \"load_before\": " << loadBefore
         << ", \"load_after\": " << loadAverage() << ", \"compiler\": \""
         << PERFBENCH_COMPILER << "\", \"build_type\": \""
         << PERFBENCH_BUILD_TYPE << "\", \"git_sha\": \"" << a.gitSha
         << "\", \"src_digest\": \"" << a.srcDigest << "\"}";

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                wl.name.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace);
    std::printf("meta %s\n", meta.str().c_str());
    std::printf("timed phase: %zu passes, %zu runs, %.2f s\n",
                passWall.size(), timed.size(), timedWall);
    for (const Metric &m : metrics)
        std::printf("  %-28s %14.6g %-16s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.base.c_str());
    for (const std::string &n : notes)
        std::printf("  %s\n", n.c_str());
    std::printf("runs_failed %llu of %llu runs (threw %llu, fingerprint "
                "mismatches %llu, conservation violations %llu; %llu "
                "checked against the reference)\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(threw),
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(conservationViolations),
                static_cast<unsigned long long>(refChecked));
    for (const Claim &c : claims)
        std::printf("claim %s: %s\n",
                    c.ok ? "ok  " : assertClaims ? "FAIL" : "n/a ",
                    c.text.c_str());
    std::printf("fingerprint setup %s pass0 %s\n", hex(setupDigest).c_str(),
                hex(pass0Digest).c_str());

    const std::string stem = a.outDir + "/perfbench-" + wl.name + "-s" +
                             std::to_string(a.seed) + "-t" +
                             std::to_string(a.trace);
    if (a.trace && !spans.writeChromeJson(stem + ".trace.json"))
        std::fprintf(stderr, "cannot write %s.trace.json\n", stem.c_str());
    if (std::FILE *f = std::fopen((stem + ".json").c_str(), "w")) {
        std::fprintf(f, "{\"meta\": %s,\n \"correct\": %s,\n"
                        " \"runs_failed\": %llu, \"runs_attempted\": %llu,\n"
                        " \"fingerprint\": {\"setup\": \"%s\", \"pass0\": "
                        "\"%s\"},\n \"metrics\": [\n",
                     meta.str().c_str(), correct ? "true" : "false",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted),
                     hex(setupDigest).c_str(), hex(pass0Digest).c_str());
        for (std::size_t i = 0; i < metrics.size(); ++i)
            std::fprintf(f,
                         "  {\"name\": \"%s\", \"value\": %.17g, \"unit\": "
                         "\"%s\", \"base\": \"%s\"}%s\n",
                         metrics[i].name.c_str(), metrics[i].value,
                         metrics[i].unit.c_str(), metrics[i].base.c_str(),
                         i + 1 < metrics.size() ? "," : "");
        std::fprintf(f, " ],\n \"pass_wall_s\": [");
        for (std::size_t i = 0; i < passWall.size(); ++i)
            std::fprintf(f, "%s%.6f", i ? ", " : "", passWall[i]);
        std::fprintf(f, "],\n \"pass_cpu_s\": [");
        for (std::size_t i = 0; i < passCpu.size(); ++i)
            std::fprintf(f, "%s%.6f", i ? ", " : "", passCpu[i]);
        std::fprintf(f, "],\n \"probe_cpu_s\": [");
        for (std::size_t i = 0; i < probes.size(); ++i)
            std::fprintf(f, "%s%.6f", i ? ", " : "", probes[i]);
        std::fprintf(f, "]}\n");
        std::fclose(f);
    } else {
        std::fprintf(stderr, "cannot write %s.json\n", stem.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
    // An inverted paper-shape claim fails the invocation outright.
    return claimsOk ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::benchMain(argc, argv);
}
