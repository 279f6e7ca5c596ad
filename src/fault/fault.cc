#include "fault/fault.hh"

#include <algorithm>
#include <utility>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace tpv {
namespace fault {

namespace {

/** Compact duration tag for labels: "30ms", "250us", "1500ns". */
std::string
compactTime(Time t)
{
    if (t % kMillisecond == 0)
        return std::to_string(t / kMillisecond) + "ms";
    if (t % kMicrosecond == 0)
        return std::to_string(t / kMicrosecond) + "us";
    return std::to_string(t) + "ns";
}

} // namespace

std::string
FaultSpec::label() const
{
    std::string out = "kill-r" + std::to_string(replica) + '@' +
                      compactTime(start);
    if (duration > 0) {
        out += '+';
        out += compactTime(duration);
    }
    return out;
}

std::string
FaultPlan::label() const
{
    return fault ? fault->label() : "none";
}

FaultPlan
FaultPlan::replicaKill(std::string tier, int replica, Time start,
                       Time duration, Time detectDelay)
{
    return FaultPlan{
        FaultSpec{std::move(tier), replica, start, duration, detectDelay}};
}

Injector::Injector(Simulator &sim, svc::ServiceGraph &graph,
                   FaultPlan plan)
    : sim_(sim), graph_(graph), plan_(std::move(plan))
{
}

svc::Tier &
Injector::validate(const FaultSpec &spec)
{
    svc::Tier *tier = graph_.findTier(spec.tier);
    if (tier == nullptr)
        fatal("FaultSpec::tier '", spec.tier, "' names no tier");
    if (spec.replica < 0 || spec.replica >= tier->replicaCount()) {
        fatal("FaultSpec::replica must be in [0, ", tier->replicaCount(),
              ") for tier '", spec.tier, "', got ", spec.replica);
    }
    if (spec.start < 0)
        fatal("FaultSpec::start must be >= 0, got ", spec.start);
    if (spec.duration < 0) {
        fatal("FaultSpec::duration must be >= 0 (0 = the rest of the "
              "run), got ",
              spec.duration);
    }
    if (spec.detectDelay < 0)
        fatal("FaultSpec::detectDelay must be >= 0, got ", spec.detectDelay);
    return *tier;
}

void
Injector::arm(Time horizon)
{
    TPV_ASSERT(!armed_, "injector armed twice");
    armed_ = true;
    if (!plan_.fault)
        return;
    const FaultSpec &spec = *plan_.fault;
    svc::Tier *t = &validate(spec);
    // A window may outlast the run: clamp so the restart event fires
    // inside it.
    const Time start = std::max(spec.start, sim_.now());
    const Time end = std::min(
        spec.duration > 0 ? spec.start + spec.duration : horizon, horizon);
    if (start >= end)
        return;
    const int ti = t->tierIndex();
    const int r = spec.replica;
    if (obs::TraceRecorder *tr = graph_.trace())
        tr->marker(obs::SpanKind::Fault, start, end, {ti, -1, r});

    sim_.at(start, [this, ti] {
        svc::ServiceStats &stats = graph_.mutableStats();
        ++stats.faultsInjected;
        ++stats.tiers[static_cast<std::size_t>(ti)].faultsInjected;
    });
    sim_.at(start, [t, r] { t->setReplicaUp(r, false); });
    // Failure detection is a separate event: only once it fires do
    // senders suspect the replica and re-issue its outstanding
    // sub-requests. A crash that heals before detection was a blip
    // nobody ever acted on.
    const Time detectAt = start + spec.detectDelay;
    if (detectAt < end)
        sim_.at(detectAt, [t, r] { t->setReplicaSuspected(r, true); });
    sim_.at(end, [t, r] { t->setReplicaUp(r, true); });
    sim_.at(end, [t, r] { t->setReplicaSuspected(r, false); });
}

} // namespace fault
} // namespace tpv
