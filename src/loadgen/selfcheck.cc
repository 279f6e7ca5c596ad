#include "loadgen/selfcheck.hh"

#include <cmath>
#include <cstdio>
#include <vector>

#include "sim/logging.hh"
#include "stats/descriptive.hh"

namespace tpv {
namespace loadgen {

bool
SelfCheckReport::allOk() const
{
    if (arrivalCheckApplicable && !arrivalsOk)
        return false;
    return stationaryOk && independentOk;
}

std::string
SelfCheckReport::summary() const
{
    char buf[512];
    std::string out;
    if (arrivalCheckApplicable) {
        std::snprintf(buf, sizeof(buf),
                      "arrival exponentiality (AD): A2=%.3f -> %s "
                      "(mean lateness %.2fus)\n",
                      arrivalFit.aSquared, arrivalsOk ? "ok" : "FAIL",
                      meanLatenessUs);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "latency stationarity (DF): t=%.2f -> %s\n",
                  stationarity.statistic, stationaryOk ? "ok" : "FAIL");
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "sample independence (Spearman lag-1): rho=%.3f "
                  "p=%.3g -> %s\n",
                  lag1Dependence.rho, lag1Dependence.pValue,
                  independentOk ? "ok" : "FAIL");
    out += buf;
    return out;
}

void
watchSendGaps(net::Link &link, const LatencyRecorder &rec,
              std::vector<double> &gaps)
{
    link.setObserver([&rec, &gaps, lastSend = std::vector<Time>()](
                         const net::Message &m, Time) mutable {
        if (m.conn >= lastSend.size())
            lastSend.resize(m.conn + 1u, -1);
        Time &last = lastSend[m.conn];
        if (last >= 0 && rec.inWindow(m.appSendTime))
            gaps.push_back(toUsec(m.appSendTime - last));
        last = m.appSendTime;
    });
}

SelfCheckReport
runSelfCheck(const LatencyRecorder &rec,
             const std::vector<double> &sendGaps)
{
    const auto &lat = rec.latencies();
    TPV_ASSERT(lat.size() >= 32, "self-check needs >= 32 latency samples");

    SelfCheckReport rep;

    // (i) Arrival-process fidelity (Lancet's Anderson-Darling check).
    rep.arrivalCheckApplicable = sendGaps.size() >= 32;
    if (rep.arrivalCheckApplicable) {
        rep.arrivalFit = stats::andersonDarlingExponential(sendGaps);
        rep.arrivalsOk = rep.arrivalFit.exponentialAt5();
    }
    if (!rec.lateness().empty())
        rep.meanLatenessUs = stats::mean(rec.lateness());

    // (ii) Stationarity (Lancet's augmented Dickey-Fuller check).
    rep.stationarity = stats::dickeyFuller(lat);
    rep.stationaryOk = rep.stationarity.stationaryAt5();

    // (iii) Inter-sample independence (Lancet's Spearman check):
    // correlate x[i] with x[i+1]; dependence shows as rho != 0.
    std::vector<double> head(lat.begin(), lat.end() - 1);
    std::vector<double> tail(lat.begin() + 1, lat.end());
    rep.lag1Dependence = stats::spearman(head, tail);
    rep.independentOk = rep.lag1Dependence.pValue >= 0.01 ||
                        std::abs(rep.lag1Dependence.rho) < 0.1;
    return rep;
}

} // namespace loadgen
} // namespace tpv
