/**
 * @file
 * Generator self-validation, modelled on Lancet (Kogias et al., ATC'19;
 * paper Section VII): before trusting a run's percentiles, check that
 * (i) the realised inter-arrival times follow the requested
 * distribution (Anderson-Darling), (ii) the latency series is
 * stationary (Dickey-Fuller), and (iii) successive samples are
 * independent (Spearman on lagged pairs).
 *
 * A time-sensitive generator on an untuned client fails (i) — its
 * sends drift from the schedule — which is exactly the workload
 * distortion of paper Section II.
 */

#ifndef TPV_LOADGEN_SELFCHECK_HH
#define TPV_LOADGEN_SELFCHECK_HH

#include <string>
#include <vector>

#include "loadgen/recorder.hh"
#include "net/link.hh"
#include "stats/dependence.hh"
#include "stats/normality.hh"

namespace tpv {
namespace loadgen {

/** Outcome of the Lancet-style validity checks on one run. */
struct SelfCheckReport
{
    /** (i) Do inter-arrival gaps match the exponential target? */
    stats::AndersonDarlingExpResult arrivalFit;
    bool arrivalsOk = false;
    /** Set when at least 32 send gaps were given. */
    bool arrivalCheckApplicable = false;

    /** (ii) Is the latency series stationary? */
    stats::DickeyFullerResult stationarity;
    bool stationaryOk = false;

    /** (iii) Are successive latency samples independent? */
    stats::SpearmanResult lag1Dependence;
    bool independentOk = false;

    /** Mean send lateness (us) — the workload-distortion headline. */
    double meanLatenessUs = 0;

    /** All applicable checks passed. */
    bool allOk() const;

    /** One-line-per-check human-readable report. */
    std::string summary() const;
};

/**
 * Collect the realised per-connection send gaps (us) of the requests
 * @p link carries: each send inside @p rec's window appends the time
 * since the previous send on its connection. Sends before the window
 * only set that previous send. Installs @p link's send observer; call
 * it before the run starts. @p rec and @p gaps must outlive the run.
 */
void watchSendGaps(net::Link &link, const LatencyRecorder &rec,
                   std::vector<double> &gaps);

/**
 * Run the checks against a completed run's recorder.
 * @param rec the generator's recorder after the run.
 * @param sendGaps the run's send gaps (see watchSendGaps()); the
 *        arrival check runs only with at least 32 of them.
 * @pre at least 32 recorded latencies.
 */
SelfCheckReport runSelfCheck(const LatencyRecorder &rec,
                             const std::vector<double> &sendGaps);

} // namespace loadgen
} // namespace tpv

#endif // TPV_LOADGEN_SELFCHECK_HH
