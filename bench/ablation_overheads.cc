/**
 * @file
 * Ablation bench (beyond the paper's figures): decompose the LP-HP
 * gap into its mechanisms — C-state exit latency, DVFS wake
 * frequency, and the measurement point — the quantities Section V-A
 * invokes verbally ("a query must experience at least a C-state
 * transition, a DVFS transition, and a context switch").
 *
 * The driver exits 1, at default scale, unless the LP client with
 * both mechanisms off (C0+C1 only, performance governor) closes at
 * least 90% of the LP-HP gap (prints `claim ok/FAIL`; `n/a` below
 * default scale).
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

namespace {

/**
 * Collects every configuration the ablation probes, then evaluates
 * them all as one flat bag on the scheduler; meanAvg(i) reads the
 * finished result back.
 */
class ProbeSet
{
  public:
    std::size_t
    add(core::ExperimentConfig cfg)
    {
        cfgs_.push_back(std::move(cfg));
        return cfgs_.size() - 1;
    }

    void
    evaluate(const BenchOptions &opt)
    {
        RunnerOptions ropt = opt.runner();
        ropt.runs = std::max(4, ropt.runs / 2);
        results_ = runManyBatch(cfgs_, ropt);
    }

    double
    meanAvg(std::size_t i) const
    {
        return results_[i].meanAvg();
    }

  private:
    std::vector<core::ExperimentConfig> cfgs_;
    std::vector<core::RepeatedResult> results_;
};

} // namespace

int
main()
{
    const BenchOptions opt = BenchOptions::fromEnv();
    std::printf("Ablation: decomposing the LP-HP gap at 10K QPS\n");
    std::printf("runs=%d duration=%s\n\n", std::max(4, opt.runs / 2),
                formatTime(opt.duration).c_str());

    auto base = withTiming(ExperimentConfig::forMemcached(10e3), opt);

    auto lp = base;
    lp.client = hw::HwConfig::clientLP();
    auto hp = base;
    hp.client = hw::HwConfig::clientHP();

    // Register every probe first, evaluate them all in one bag, then
    // narrate the results in the original order.
    ProbeSet probes;
    const std::size_t lpIdx = probes.add(lp);
    const std::size_t hpIdx = probes.add(hp);

    // (1) Disable deep C-states only (keep powersave DVFS).
    auto noDeep = lp;
    noDeep.client.cstates = {hw::CState::C0, hw::CState::C1};
    const std::size_t noDeepIdx = probes.add(noDeep);

    // (2) Performance governor only (keep C-states).
    auto perfGov = lp;
    perfGov.client.governor = hw::FreqGovernor::Performance;
    perfGov.client.driver = hw::FreqDriver::AcpiCpufreq;
    const std::size_t perfIdx = probes.add(perfGov);

    // (2b) Both: only C0+C1 and the performance governor.
    auto joint = noDeep;
    joint.client.governor = perfGov.client.governor;
    joint.client.driver = perfGov.client.driver;
    const std::size_t jointIdx = probes.add(joint);

    // (3) IRQ-path sensitivity: the client's per-interrupt kernel work
    // (irqWork) scaled 0.25x-2x, with the per-machine exit-latency
    // jitter off to isolate the mean effect.
    const std::vector<double> scales{0.25, 0.5, 1.0, 2.0};
    std::vector<std::size_t> scaleIdx;
    for (double scale : scales) {
        auto scaled = lp;
        scaled.client.exitLatencyJitter = 0;
        scaled.client.irqWork = static_cast<Time>(
            static_cast<double>(base.client.irqWork) * scale);
        scaleIdx.push_back(probes.add(scaled));
    }

    // (3b) Idle-governor policy: Linux menu vs the two bracketing
    // policies.
    const std::vector<hw::IdleGovernorKind> governors{
        hw::IdleGovernorKind::Menu, hw::IdleGovernorKind::AlwaysDeepest,
        hw::IdleGovernorKind::AlwaysShallowest};
    std::vector<std::size_t> governorIdx;
    for (auto kind : governors) {
        auto cfg = lp;
        cfg.client.idleGovernor = kind;
        governorIdx.push_back(probes.add(cfg));
    }

    // (4) Point of measurement.
    const std::vector<loadgen::MeasurePoint> measurePoints{
        loadgen::MeasurePoint::InApp, loadgen::MeasurePoint::Kernel,
        loadgen::MeasurePoint::Nic};
    std::vector<std::size_t> measureIdx;
    for (auto mp : measurePoints) {
        auto cfg = lp;
        cfg.gen.measure = mp;
        measureIdx.push_back(probes.add(cfg));
    }

    probes.evaluate(opt);

    const double lpAvg = probes.meanAvg(lpIdx);
    const double hpAvg = probes.meanAvg(hpIdx);
    std::printf("%-44s %10.2f us\n", "LP (all low-power features)", lpAvg);
    std::printf("%-44s %10.2f us\n", "HP (tuned)", hpAvg);
    std::printf("%-44s %10.2f us\n\n", "gap", lpAvg - hpAvg);

    const double noDeepAvg = probes.meanAvg(noDeepIdx);
    std::printf("%-44s %10.2f us (gap closed: %5.1f%%)\n",
                "LP w/ only C0+C1 (no C1E/C6 exits)", noDeepAvg,
                100.0 * (lpAvg - noDeepAvg) / (lpAvg - hpAvg));

    const double perfAvg = probes.meanAvg(perfIdx);
    std::printf("%-44s %10.2f us (gap closed: %5.1f%%)\n",
                "LP w/ performance governor (no DVFS dips)", perfAvg,
                100.0 * (lpAvg - perfAvg) / (lpAvg - hpAvg));

    // The claim: C-state exits and DVFS wake dips together make up the
    // LP client's penalty. A mean of the gap needs the default run
    // count and window; below them it prints n/a.
    const double jointAvg = probes.meanAvg(jointIdx);
    const double jointClosed = (lpAvg - jointAvg) / (lpAvg - hpAvg);
    std::printf("%-44s %10.2f us (gap closed: %5.1f%%)\n",
                "LP w/ only C0+C1 and performance governor", jointAvg,
                100.0 * jointClosed);
    const bool closesGap = jointClosed >= 0.9;
    const bool asserted = opt.atDefaultScale();
    std::printf("claim %s: C0+C1 with the performance governor closes "
                ">= 90%% of the gap (%s)\n",
                !asserted ? "n/a" : closesGap ? "ok" : "FAIL",
                closesGap ? "yes" : "no");

    std::printf("\nIRQ-path work sensitivity (client irqWork):\n");
    for (std::size_t i = 0; i < scales.size(); ++i)
        std::printf("  irqWork scale %.2fx -> avg %10.2f us\n",
                    scales[i], probes.meanAvg(scaleIdx[i]));

    std::printf("\nIdle-governor policy on the LP client:\n");
    for (std::size_t i = 0; i < governors.size(); ++i)
        std::printf("  %-18s -> avg %10.2f us\n",
                    hw::toString(governors[i]),
                    probes.meanAvg(governorIdx[i]));
    std::printf("  (menu lands between the brackets: it predicts idle "
                "lengths instead of\n   committing to one extreme)\n");

    std::printf("\nPoint of measurement on the LP client:\n");
    for (std::size_t i = 0; i < measurePoints.size(); ++i)
        std::printf("  %-8s -> avg %10.2f us\n",
                    loadgen::toString(measurePoints[i]),
                    probes.meanAvg(measureIdx[i]));
    std::printf("\nNIC timestamping removes the client-side inflation "
                "entirely (Lancet's approach).\n");
    return closesGap || !asserted ? 0 : 1;
}
