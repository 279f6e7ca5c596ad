/**
 * @file
 * The scenario taxonomy of paper Table III: which combinations of
 * workload-generator design, client configuration and service
 * response time risk producing wrong conclusions.
 */

#ifndef TPV_CORE_SCENARIO_HH
#define TPV_CORE_SCENARIO_HH

#include <string>
#include <vector>

#include "loadgen/params.hh"
#include "sim/time.hh"

namespace tpv {
namespace core {

/** One row of Table III. */
struct Scenario
{
    /** Inter-arrival implementation (block-wait = time-sensitive). */
    loadgen::SendMode interarrival = loadgen::SendMode::BlockWait;
    /** Point of measurement (the paper's rows are all in-app). */
    loadgen::MeasurePoint measure = loadgen::MeasurePoint::InApp;
    /** Client configuration tuned for performance (HP) or not (LP). */
    bool clientTuned = false;
    /** Service response time large relative to client overheads. */
    bool bigResponseTime = false;
    /** Paper sections evaluating this scenario. */
    std::string sections;

    /** Human-readable row label. */
    std::string label() const;
};

/**
 * The paper's risk rule: a time-sensitive generator measuring in-app
 * on an untuned client against a small-response-time service can
 * reach wrong conclusions (the X row of Table III).
 */
bool risky(const Scenario &s);

/** All four rows of Table III. */
std::vector<Scenario> tableIIIScenarios();

/**
 * Classify an arbitrary setup the way Table III would: services with
 * sub-~200us latency count as "small response time" (comparable to
 * the worst-case client-side overhead the paper cites).
 */
Scenario classify(loadgen::SendMode interarrival,
                  loadgen::MeasurePoint measure, bool clientTuned,
                  Time serviceLatency);

} // namespace core
} // namespace tpv

#endif // TPV_CORE_SCENARIO_HH
