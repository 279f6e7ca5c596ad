#include "obs/metrics.hh"

#include <cstdio>
#include <utility>

#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace tpv {
namespace obs {

void
MetricsRegistry::add(std::string name, Probe fn)
{
    TPV_ASSERT(!armed_, "metrics probe added after arm()");
    probes_.push_back(ProbeEntry{std::move(name), std::move(fn)});
}

void
MetricsRegistry::arm(Simulator &sim, Time period, Time until)
{
    TPV_ASSERT(period > 0, "metrics period must be positive");
    TPV_ASSERT(!armed_, "metrics armed twice");
    armed_ = true;
    // Pre-size the stores for the whole run: ticks then append into
    // reserved slabs.
    const std::size_t rows =
        static_cast<std::size_t>(until / period + 2);
    tickTimes_.reserve(rows);
    values_.reserve(rows * probes_.size());
    sim.at(period, [this, &sim, period, until] { tick(sim, period, until); });
}

void
MetricsRegistry::tick(Simulator &sim, Time period, Time until)
{
    tickTimes_.push_back(sim.now());
    for (const ProbeEntry &p : probes_)
        values_.push_back(p.fn());
    const Time next = sim.now() + period;
    if (next <= until) {
        sim.at(next,
               [this, &sim, period, until] { tick(sim, period, until); });
    }
}

std::string
MetricsRegistry::csv() const
{
    std::string out = "time_ns";
    for (const ProbeEntry &p : probes_) {
        out += ',';
        out += p.name;
    }
    out += '\n';

    char buf[64];
    const double *v = values_.data();
    for (const Time t : tickTimes_) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(t));
        out += buf;
        for (std::size_t i = 0; i < probes_.size(); ++i) {
            std::snprintf(buf, sizeof buf, ",%.6g", *v++);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

} // namespace obs
} // namespace tpv
