#include "core/scenario.hh"

namespace tpv {
namespace core {

std::string
Scenario::label() const
{
    std::string out = "open-loop ";
    out += interarrival == loadgen::SendMode::BlockWait
               ? "time-sensitive"
               : "time-insensitive";
    out += ", ";
    out += toString(measure);
    out += ", client ";
    out += clientTuned ? "tuned" : "not-tuned";
    out += ", response ";
    out += bigResponseTime ? "big" : "small";
    return out;
}

bool
risky(const Scenario &s)
{
    return s.interarrival == loadgen::SendMode::BlockWait &&
           s.measure == loadgen::MeasurePoint::InApp && !s.clientTuned &&
           !s.bigResponseTime;
}

std::vector<Scenario>
tableIIIScenarios()
{
    using loadgen::MeasurePoint;
    using loadgen::SendMode;
    const auto row = [](SendMode ia, bool tuned, bool big,
                        const char *sections) {
        Scenario s;
        s.interarrival = ia;
        s.measure = MeasurePoint::InApp;
        s.clientTuned = tuned;
        s.bigResponseTime = big;
        s.sections = sections;
        return s;
    };
    return {
        row(SendMode::BlockWait, true, false, "5.1, 5.3"),
        row(SendMode::BlockWait, false, false, "5.1, 5.3"),
        row(SendMode::BusyWait, true, true, "5.2"),
        row(SendMode::BusyWait, false, true, "5.2"),
    };
}

Scenario
classify(loadgen::SendMode interarrival, loadgen::MeasurePoint measure,
         bool clientTuned, Time serviceLatency)
{
    Scenario s;
    s.interarrival = interarrival;
    s.measure = measure;
    s.clientTuned = clientTuned;
    // "Small" = same order as the client-side overheads: C-state exit
    // up to 200us (paper Section II).
    s.bigResponseTime = serviceLatency > usec(200);
    s.sections = "classified";
    return s;
}

} // namespace core
} // namespace tpv
