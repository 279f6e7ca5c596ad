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
    std::string out = "kill-";
    if (replica < 0) {
        out += "all";
    } else {
        out += 'r';
        out += std::to_string(replica);
    }
    out += '@';
    out += compactTime(start);
    if (duration > 0) {
        out += '+';
        out += compactTime(duration);
    }
    return out;
}

std::string
FaultPlan::label() const
{
    if (faults.empty())
        return "none";
    std::string out;
    for (const FaultSpec &f : faults) {
        if (!out.empty())
            out += '+';
        out += f.label();
    }
    return out;
}

FaultPlan &
FaultPlan::add(FaultSpec spec)
{
    faults.push_back(std::move(spec));
    return *this;
}

FaultPlan
FaultPlan::replicaKill(std::string tier, int replica, Time start,
                       Time duration, Time detectDelay)
{
    FaultSpec s;
    s.tier = std::move(tier);
    s.replica = replica;
    s.start = start;
    s.duration = duration;
    s.detectDelay = detectDelay;
    return FaultPlan{}.add(std::move(s));
}

Injector::Injector(Simulator &sim, svc::ServiceGraph &graph,
                   FaultPlan plan)
    : sim_(sim), graph_(graph), plan_(std::move(plan))
{
}

FaultWindow
Injector::materialise(const FaultSpec &spec, Time horizon)
{
    return FaultWindow{spec.start, spec.duration > 0
                                       ? spec.start + spec.duration
                                       : horizon};
}

svc::Tier &
Injector::validate(const FaultSpec &spec)
{
    svc::Tier *tier = graph_.findTier(spec.tier);
    if (tier == nullptr)
        fatal("FaultSpec::tier '", spec.tier, "' names no tier");
    if (spec.replica < -1 || spec.replica >= tier->replicaCount()) {
        fatal("FaultSpec::replica must be -1 (every replica) or in [0, ",
              tier->replicaCount(), ") for tier '", spec.tier, "', got ",
              spec.replica);
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

std::vector<int>
Injector::targetReplicas(const FaultSpec &spec, const svc::Tier &tier)
{
    if (spec.replica >= 0)
        return {spec.replica};
    std::vector<int> out;
    for (int r = 0; r < tier.replicaCount(); ++r)
        out.push_back(r);
    return out;
}

void
Injector::arm(Time horizon)
{
    TPV_ASSERT(!armed_, "injector armed twice");
    armed_ = true;
    const Time now = sim_.now();

    // Lay every window's begin/detect/end out exactly as the simulator
    // would execute them: by time, ties in arm order (the queue pops
    // same-instant events in insertion order).
    std::vector<SweepEntry> sweep;
    std::uint64_t order = 0;
    for (const FaultSpec &spec : plan_.faults) {
        svc::Tier &tier = validate(spec);
        const FaultWindow w = materialise(spec, horizon);
        // A window may outlast the run: clamp so the restart event
        // fires inside it.
        const Time start = std::max(w.start, now);
        const Time end = std::min(w.end, horizon);
        if (start >= end)
            continue;
        ++windowsArmed_;
        if (obs::TraceRecorder *tr = graph_.trace()) {
            // The window as a global marker, recorded offline.
            tr->marker(obs::SpanKind::Fault, start, end,
                       {tier.tierIndex(), -1, spec.replica});
        }
        sweep.push_back(
            SweepEntry{start, order++, SweepEntry::Begin, &spec, &tier});
        // Failure detection is a separate event: only once it fires do
        // senders suspect the replica and re-issue outstanding
        // sub-requests. A crash that heals before detection was a blip
        // nobody ever acted on.
        const Time detectAt = start + spec.detectDelay;
        if (detectAt < end) {
            sweep.push_back(SweepEntry{detectAt, order++,
                                       SweepEntry::Detect, &spec, &tier});
        }
        sweep.push_back(
            SweepEntry{end, order++, SweepEntry::End, &spec, &tier});
    }
    std::stable_sort(sweep.begin(), sweep.end(),
                     [](const SweepEntry &a, const SweepEntry &b) {
                         return a.when < b.when;
                     });

    // Replay the timeline through the engage state machine and
    // schedule the concrete flips it implies. Who flips and when is
    // settled here, offline; the scheduled ops just apply the flips.
    for (const SweepEntry &e : sweep) {
        switch (e.type) {
          case SweepEntry::Begin:
            replayBegin(e);
            break;
          case SweepEntry::Detect:
            replayDetect(e);
            break;
          case SweepEntry::End:
            replayEnd(e);
            break;
        }
    }
}

void
Injector::replayBegin(const SweepEntry &e)
{
    svc::Tier *t = e.tier;
    const int ti = t->tierIndex();
    sim_.at(e.when, [this, ti] {
        svc::ServiceStats &stats = graph_.mutableStats();
        ++stats.faultsInjected;
        ++stats.tiers[static_cast<std::size_t>(ti)].faultsInjected;
    });
    for (int r : targetReplicas(*e.spec, *t)) {
        // Overlapping windows on one replica compose: crash on the
        // first begin, restart on the last end. Detection is the
        // separate Detect entry, detectDelay later.
        if (engage(t, r, true))
            sim_.at(e.when, [t, r] { t->setReplicaUp(r, false); });
    }
}

void
Injector::replayDetect(const SweepEntry &e)
{
    // Suspect the replicas, which re-issues their outstanding
    // sub-requests.
    svc::Tier *t = e.tier;
    const FaultSpec *s = e.spec;
    sim_.at(e.when, [t, s] {
        for (int r : targetReplicas(*s, *t))
            t->setReplicaSuspected(r, true);
    });
}

void
Injector::replayEnd(const SweepEntry &e)
{
    svc::Tier *t = e.tier;
    for (int r : targetReplicas(*e.spec, *t)) {
        if (!engage(t, r, false))
            continue;
        sim_.at(e.when, [t, r] { t->setReplicaUp(r, true); });
        sim_.at(e.when, [t, r] { t->setReplicaSuspected(r, false); });
    }
}

bool
Injector::engage(const svc::Tier *tier, int replica, bool active)
{
    int &count = active_[{tier, replica}];
    if (active)
        return ++count == 1;
    TPV_ASSERT(count > 0, "fault window end without a begin");
    return --count == 0;
}

} // namespace fault
} // namespace tpv
