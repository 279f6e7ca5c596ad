/**
 * @file
 * Study helpers: QPS sweeps across client/server configuration pairs,
 * slowdown ratios, and tabular reporting — the machinery behind every
 * figure of Section V.
 */

#ifndef TPV_CORE_STUDY_HH
#define TPV_CORE_STUDY_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hh"
#include "loadgen/load_profile.hh"

namespace tpv {
namespace core {

/** One (configuration, load) cell of a study. */
struct StudyCell
{
    std::string config;
    double qps = 0;
    RepeatedResult result;
};

/** A full sweep: every configuration at every load. */
struct StudyGrid
{
    std::vector<StudyCell> cells;

    /** Find a cell. Aborts if absent. */
    const StudyCell &at(const std::string &config, double qps) const;

    /** Distinct configuration labels in insertion order. */
    std::vector<std::string> configs() const;

    /** Distinct QPS values in insertion order. */
    std::vector<double> loads() const;
};

// ---------------------------------------------------------------------
// The sweep axes. sweep<Axis>() is the one sweep-grid entry point; one
// Axis struct per sweepable dimension names the swept Value and says
// how a value labels its cells, how it lands on a materialised config,
// and which QPS the cell records.
// ---------------------------------------------------------------------

/** Axis of stationary load points (the original sweep dimension).
 *  The factory receives the QPS and bakes it in, so applying is a
 *  no-op and cells keep their bare configuration name. */
struct LoadAxis
{
    using Value = double;
    static std::string label(const Value &) { return {}; }
    static void apply(ExperimentConfig &, const Value &) {}
    static double qps(const ExperimentConfig &, const Value &v)
    {
        return v;
    }
};

/** Axis of service-topology shapes (shards / replicas / hedging). */
struct TopologyAxis
{
    using Value = svc::TopologyShape;
    static std::string label(const Value &v) { return v.label(); }
    static void apply(ExperimentConfig &cfg, const Value &v)
    {
        applyTopology(cfg, v);
    }
    static double qps(const ExperimentConfig &cfg, const Value &)
    {
        return cfg.gen.qps;
    }
};

/** Axis of traffic-management policies; the empty all-off policy
 *  renders as "none". */
struct TrafficPolicyAxis
{
    using Value = svc::TrafficPolicy;
    static std::string label(const Value &v)
    {
        const std::string tag = v.label();
        return tag.empty() ? "none" : tag;
    }
    static void apply(ExperimentConfig &cfg, const Value &v)
    {
        applyTrafficPolicy(cfg, v);
    }
    static double qps(const ExperimentConfig &cfg, const Value &)
    {
        return cfg.gen.qps;
    }
};

/** Axis of fault plans (what breaks during the run). */
struct FaultPlanAxis
{
    using Value = fault::FaultPlan;
    static std::string label(const Value &v) { return v.label(); }
    static void apply(ExperimentConfig &cfg, const Value &v)
    {
        cfg.faultPlan = v;
    }
    static double qps(const ExperimentConfig &cfg, const Value &)
    {
        return cfg.gen.qps;
    }
};

/** Axis of offered-load profiles (constant / diurnal / flash /
 *  MMPP); cells record the base (unmodulated) rate. */
struct ProfileAxis
{
    using Value = loadgen::LoadProfileParams;
    static std::string label(const Value &v)
    {
        return toString(v.kind);
    }
    static void apply(ExperimentConfig &cfg, const Value &v)
    {
        cfg.gen.profile = v;
    }
    static double qps(const ExperimentConfig &cfg, const Value &)
    {
        return cfg.gen.qps;
    }
};

/** Axis of memcached cache shapes (keyspace skew / capacity /
 *  eviction); the disabled shape renders as "nocache". */
struct CacheAxis
{
    using Value = svc::CacheShape;
    static std::string label(const Value &v)
    {
        const std::string tag = v.label();
        return tag.empty() ? "nocache" : tag;
    }
    static void apply(ExperimentConfig &cfg, const Value &v)
    {
        applyCacheShape(cfg, v);
    }
    static double qps(const ExperimentConfig &cfg, const Value &)
    {
        return cfg.gen.qps;
    }
};

/**
 * Run the grid of configurations x axis values — the one sweep-grid
 * loop in the tree. The default axis is stationary load, so
 * sweep(configs, loads, factory, opt) runs configurations x QPS points;
 * other studies name their axis, e.g. sweep<TopologyAxis>(configs,
 * shapes, factory, opt) or sweep<FaultPlanAxis>(...).
 *
 * Cells are labelled "<config>/<Axis::label(value)>" (bare "<config>"
 * when the label is empty, as on the load axis), with repeated labels
 * disambiguated ("diurnal", "diurnal#2", ...). The factory is called
 * as factory(config, value) and materialises each cell first, then
 * Axis::apply() lands the value on it, so factories may set other axes
 * (topology, faults) and the swept value wins on its own. Cells are
 * materialised config-major up front and executed as one flat bag of
 * (cell, repetition) tasks: workers never idle at a cell boundary
 * while another cell still has repetitions to run, and grids are
 * bit-identical at any parallelism.
 *
 * @param configs configuration labels, e.g. {"LP-SMToff", ...}.
 * @param values the swept axis values, e.g. Figure 2's 10K..500K QPS.
 * @param factory materialises an ExperimentConfig per cell.
 * @param opt repetition settings.
 * @param progress optional callback fired after each finished cell.
 */
template <typename Axis = LoadAxis, typename Factory>
StudyGrid
sweep(const std::vector<std::string> &configs,
      const std::vector<typename Axis::Value> &values,
      const Factory &factory, const RunnerOptions &opt,
      const std::function<void(const StudyCell &)> &progress = nullptr)
{
    // Two passes over the labels: repeats are counted against the
    // *raw* labels so an already-suffixed "diurnal#2" never shifts
    // later counts.
    std::vector<std::string> raw(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        raw[i] = Axis::label(values[i]);
    std::vector<std::string> names = raw;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (raw[i].empty())
            continue;
        std::size_t repeat = 1;
        for (std::size_t j = 0; j < i; ++j) {
            if (raw[j] == raw[i])
                ++repeat;
        }
        if (repeat > 1) {
            names[i] += '#';
            names[i] += std::to_string(repeat);
        }
    }

    StudyGrid grid;
    std::vector<ExperimentConfig> cellCfgs;
    for (const std::string &config : configs) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            ExperimentConfig cfg = factory(config, values[i]);
            Axis::apply(cfg, values[i]);
            StudyCell cell;
            cell.config =
                names[i].empty() ? config : config + "/" + names[i];
            cell.qps = Axis::qps(cfg, values[i]);
            grid.cells.push_back(std::move(cell));
            cellCfgs.push_back(std::move(cfg));
        }
    }

    BatchProgress batchProgress;
    if (progress) {
        batchProgress = [&](std::size_t i, const RepeatedResult &r) {
            progress(StudyCell{grid.cells[i].config, grid.cells[i].qps, r});
        };
    }
    std::vector<RepeatedResult> results =
        runManyBatch(cellCfgs, opt, batchProgress);
    for (std::size_t i = 0; i < results.size(); ++i)
        grid.cells[i].result = std::move(results[i]);
    return grid;
}

/**
 * The paper's slowdown metric: ratio of mean per-run averages of two
 * configurations (e.g. SMT_OFF / SMT_ON in Figure 2c).
 */
double slowdownAvg(const RepeatedResult &numerator,
                   const RepeatedResult &denominator);

/** Same ratio on per-run p99s (Figure 2d). */
double slowdownP99(const RepeatedResult &numerator,
                   const RepeatedResult &denominator);

/**
 * Does the study support a confident ordering of the two configs'
 * median latency at this load? (+1: a above b, -1: below, 0: CIs
 * overlap — the paper's conflicting-conclusions check for Figure 3.)
 */
int confidentAvgOrdering(const RepeatedResult &a, const RepeatedResult &b);

/**
 * Fixed-width table printing for bench binaries: a header plus one
 * row per load, one column per configuration.
 */
class TableReporter
{
  public:
    /** @param title printed above the table. */
    explicit TableReporter(std::string title);

    /** Set column headers (first column is the row label). */
    void header(const std::vector<std::string> &cols);

    /** Append a data row. */
    void row(const std::string &label, const std::vector<double> &values);

    /** Render to stdout. */
    void print() const;

    /** Render as CSV (for EXPERIMENTS.md extraction). */
    std::string csv() const;

  private:
    std::string title_;
    std::vector<std::string> cols_;
    struct Row
    {
        std::string label;
        std::vector<double> values;
    };
    std::vector<Row> rows_;
};

} // namespace core
} // namespace tpv

#endif // TPV_CORE_STUDY_HH
