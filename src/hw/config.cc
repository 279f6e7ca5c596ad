#include "hw/config.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace tpv {
namespace hw {

const char *
toString(CState s)
{
    switch (s) {
      case CState::C0:
        return "C0";
      case CState::C1:
        return "C1";
      case CState::C1E:
        return "C1E";
      case CState::C6:
        return "C6";
    }
    return "?";
}

const char *
toString(FreqDriver d)
{
    switch (d) {
      case FreqDriver::IntelPstate:
        return "intel_pstate";
      case FreqDriver::AcpiCpufreq:
        return "acpi-cpufreq";
    }
    return "?";
}

const char *
toString(FreqGovernor g)
{
    switch (g) {
      case FreqGovernor::Performance:
        return "performance";
      case FreqGovernor::Powersave:
        return "powersave";
      case FreqGovernor::Userspace:
        return "userspace";
    }
    return "?";
}

const char *
toString(IdleGovernorKind k)
{
    switch (k) {
      case IdleGovernorKind::Menu:
        return "menu";
      case IdleGovernorKind::AlwaysDeepest:
        return "always-deepest";
      case IdleGovernorKind::AlwaysShallowest:
        return "always-shallowest";
    }
    return "?";
}

std::vector<CStateSpec>
skylakeCStateTable()
{
    // intel_idle SKX table: (exit latency, target residency, power).
    // Power values approximate one Skylake server core's share:
    // deeper states clock- then power-gate progressively more.
    return {
        {CState::C0, 0, 0, 1.2},
        {CState::C1, usec(2), usec(2), 0.8},
        {CState::C1E, usec(10), usec(20), 0.45},
        {CState::C6, usec(133), usec(600), 0.03},
    };
}

double
HwConfig::activePowerW(double ghz) const
{
    const double ratio = ghz / nominalGhz;
    return activePowerBaseW + activePowerDynW * ratio * ratio * ratio;
}

bool
HwConfig::cstateEnabled(CState s) const
{
    if (s == CState::C0)
        return true;
    return std::find(cstates.begin(), cstates.end(), s) != cstates.end();
}

void
HwConfig::validate() const
{
    if (cores <= 0)
        fatal("HwConfig '", name, "': cores must be positive");
    if (minGhz <= 0 || nominalGhz < minGhz || turboGhz < nominalGhz)
        fatal("HwConfig '", name, "': need 0 < min <= nominal <= turbo GHz");
    if (smtThroughput <= 0 || smtThroughput > 1.0)
        fatal("HwConfig '", name, "': smtThroughput must be in (0, 1]");
    if (!tickless && tickPeriod <= 0)
        fatal("HwConfig '", name, "': tick period must be positive");
    const std::pair<const char *, double> costs[] = {
        {"irqWork", static_cast<double>(irqWork)},
        {"tickWork", static_cast<double>(tickWork)},
        {"ctxSwitch", static_cast<double>(ctxSwitch)},
        {"dvfsTransition", static_cast<double>(dvfsTransition)},
        {"psSamplePeriod", static_cast<double>(psSamplePeriod)},
        {"uncoreWake", static_cast<double>(uncoreWake)},
        {"uncoreIdleThreshold", static_cast<double>(uncoreIdleThreshold)},
        {"exitLatencyJitter", exitLatencyJitter},
    };
    for (const auto &[field, value] : costs) {
        if (value < 0)
            fatal("HwConfig '", name, "': ", field,
                  " must not be negative");
    }
    if (idlePoll && cstates.size() > 1)
        warn("HwConfig '", name,
             "': idle=poll set; enabled C-states beyond C0 are ignored");
}

HwConfig
HwConfig::clientLP()
{
    HwConfig c;
    c.name = "client-LP";
    c.cores = 10;
    c.smt = true;
    c.idlePoll = false;
    c.cstates = {CState::C0, CState::C1, CState::C1E, CState::C6};
    c.driver = FreqDriver::IntelPstate;
    c.governor = FreqGovernor::Powersave;
    c.turbo = true;
    c.uncoreDynamic = true;
    c.tickless = false;
    return c;
}

HwConfig
HwConfig::clientHP()
{
    HwConfig c;
    c.name = "client-HP";
    c.cores = 10;
    c.smt = true;
    c.idlePoll = true;
    c.cstates = {CState::C0};
    c.driver = FreqDriver::AcpiCpufreq;
    c.governor = FreqGovernor::Performance;
    c.turbo = true;
    c.uncoreDynamic = false;
    c.tickless = false;
    return c;
}

HwConfig
HwConfig::serverBaseline()
{
    HwConfig c;
    c.name = "server-baseline";
    c.cores = 10;
    c.smt = false;
    c.idlePoll = false;
    c.cstates = {CState::C0, CState::C1};
    c.driver = FreqDriver::AcpiCpufreq;
    c.governor = FreqGovernor::Performance;
    c.turbo = false;
    c.uncoreDynamic = false;
    c.tickless = true;
    // Server-side RX path: driver + IP/TCP + epoll wake per request
    // (~3 us on Skylake); with SMT off this work preempts the worker,
    // with SMT on the sibling thread absorbs it (Figure 2).
    c.irqWork = usec(3);
    return c;
}

HwConfig
HwConfig::serverSmtOn()
{
    HwConfig c = serverBaseline();
    c.name = "server-SMTon";
    c.smt = true;
    return c;
}

HwConfig
HwConfig::serverC1eOn()
{
    HwConfig c = serverBaseline();
    c.name = "server-C1Eon";
    c.cstates = {CState::C0, CState::C1, CState::C1E};
    return c;
}

} // namespace hw
} // namespace tpv
