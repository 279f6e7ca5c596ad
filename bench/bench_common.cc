#include "bench_common.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "sim/logging.hh"

namespace tpv {
namespace bench {

namespace {

/** Parse integer env knob @p name; fatal() unless the whole value is
 *  an integer in [lo, hi]. */
int
envInt(const char *name, const char *text, long lo, long hi)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0')
        fatal(name, "='", text, "' is not an integer");
    if (errno == ERANGE || v < lo || v > hi)
        fatal(name, "='", text, "' is out of range [", lo, ", ", hi, "]");
    return static_cast<int>(v);
}

/** Parse positive, finite real env knob @p name or fatal(). */
double
envPositive(const char *name, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        fatal(name, "='", text, "' is not a number");
    if (errno == ERANGE || !(v > 0) || !std::isfinite(v))
        fatal(name, "='", text, "' must be positive and finite");
    return v;
}

} // namespace

BenchOptions
BenchOptions::fromEnv()
{
    constexpr long kIntMax = std::numeric_limits<int>::max();
    BenchOptions opt;
    // Two runs is the least that gives a run-to-run spread.
    if (const char *runs = std::getenv("TPV_RUNS"))
        opt.runs = envInt("TPV_RUNS", runs, 2, kIntMax);
    if (const char *dur = std::getenv("TPV_DURATION_S")) {
        const double s = envPositive("TPV_DURATION_S", dur);
        opt.duration = seconds(s);
        opt.warmup = seconds(s / 10.0);
    }
    // 0 means one worker per hardware thread.
    if (const char *par = std::getenv("TPV_PARALLEL"))
        opt.parallelism = envInt("TPV_PARALLEL", par, 0, kIntMax);
    return opt;
}

bool
BenchOptions::atDefaultScale() const
{
    const BenchOptions defaults;
    return runs >= defaults.runs && duration >= defaults.duration;
}

core::RunnerOptions
BenchOptions::runner() const
{
    core::RunnerOptions r;
    r.runs = runs;
    r.parallelism = parallelism;
    return r;
}

core::ExperimentConfig
withTiming(core::ExperimentConfig cfg, const BenchOptions &opt)
{
    cfg.gen.duration = opt.duration;
    cfg.gen.warmup = opt.warmup;
    return cfg;
}

std::vector<std::string>
smtStudyConfigs()
{
    return {"LP-SMToff", "LP-SMTon", "HP-SMToff", "HP-SMTon"};
}

core::ExperimentConfig
configFor(const std::string &label, core::ExperimentConfig base)
{
    if (label.rfind("LP", 0) == 0) {
        base.client = hw::HwConfig::clientLP();
    } else if (label.rfind("HP", 0) == 0) {
        base.client = hw::HwConfig::clientHP();
    } else {
        fatal("unknown client prefix in label '", label, "'");
    }

    if (label.find("SMTon") != std::string::npos) {
        base.server = hw::HwConfig::serverSmtOn();
    } else if (label.find("C1Eon") != std::string::npos) {
        base.server = hw::HwConfig::serverC1eOn();
    } else if (label.find("SMToff") != std::string::npos) {
        base.server = hw::HwConfig::serverBaseline();
    } else {
        fatal("unknown server knob in label '", label, "'");
    }
    base.label = label;
    return base;
}

core::RepeatedResult
firstRuns(const core::RepeatedResult &r, int n)
{
    TPV_ASSERT(n >= 1 && static_cast<std::size_t>(n) <= r.runs.size(),
               "firstRuns needs 1 <= n <= runs");
    core::RepeatedResult out;
    out.runs.assign(r.runs.begin(), r.runs.begin() + n);
    out.avgPerRun.assign(r.avgPerRun.begin(), r.avgPerRun.begin() + n);
    out.p99PerRun.assign(r.p99PerRun.begin(), r.p99PerRun.begin() + n);
    return out;
}

std::vector<double>
memcachedLoads()
{
    return {10e3, 50e3, 100e3, 200e3, 300e3, 400e3, 500e3};
}

void
progress(const core::StudyCell &cell)
{
    std::fprintf(stderr, "  [done] %-10s @ %7.0f qps  avg=%8.2fus\n",
                 cell.config.c_str(), cell.qps,
                 cell.result.medianAvg());
}

std::string
writeBenchJson(const std::string &bench,
               const std::vector<BenchMetric> &metrics,
               const BenchOptions *runConfig)
{
    std::string path;
    if (const char *env = std::getenv("TPV_BENCH_JSON"))
        path = env;
    else
        path = "BENCH_" + bench + ".json";

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write bench report '", path, "'");
    // Run metadata, so a report is comparable across commits and
    // machines. Readers that only want the numbers index ["metrics"]
    // and never see it.
#ifndef TPV_GIT_SHA
#define TPV_GIT_SHA "unknown"
#endif
#ifndef TPV_BUILD_TYPE
#define TPV_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
    const std::string compiler =
        "clang-" + std::to_string(__clang_major__) + "." +
        std::to_string(__clang_minor__);
#elif defined(__GNUC__)
    const std::string compiler =
        "gcc-" + std::to_string(__GNUC__) + "." +
        std::to_string(__GNUC_MINOR__);
#else
    const std::string compiler = "unknown";
#endif
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"meta\": {\n"
                 "    \"git_sha\": \"%s\",\n"
                 "    \"compiler\": \"%s\",\n"
                 "    \"build_type\": \"%s\",\n"
                 "    \"hardware_concurrency\": %u",
                 bench.c_str(), TPV_GIT_SHA, compiler.c_str(),
                 TPV_BUILD_TYPE, std::thread::hardware_concurrency());
    if (runConfig)
        std::fprintf(f, ",\n    \"runs\": %d,\n    \"duration_s\": %.6g",
                     runConfig->runs,
                     static_cast<double>(runConfig->duration) / 1e9);
    std::fprintf(f, "\n  },\n  \"metrics\": [\n");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"value\": %.6g, "
                     "\"unit\": \"%s\"}%s\n",
                     metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str(),
                     i + 1 < metrics.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "  [json] wrote %s\n", path.c_str());
    return path;
}

} // namespace bench
} // namespace tpv
