/**
 * @file
 * Hardware configuration knobs (paper Section IV-C) and the LP / HP /
 * server-baseline presets of Table II.
 *
 * The reference machine is the CloudLab c220g5 node the paper uses:
 * 2-socket Intel Xeon Silver 4114 (Skylake), 10 physical cores per
 * socket, nominal 2.2 GHz, min 0.8 GHz, max turbo 3.0 GHz. The paper
 * pins each workload to a single socket, so a Machine models one
 * socket by default.
 */

#ifndef TPV_HW_CONFIG_HH
#define TPV_HW_CONFIG_HH

#include <string>
#include <vector>

#include "sim/time.hh"

namespace tpv {
namespace hw {

/** Core idle states supported by Skylake (paper Section IV-C). */
enum class CState { C0, C1, C1E, C6 };

/** @return "C0" / "C1" / "C1E" / "C6". */
const char *toString(CState s);

/** Linux CPUFreq drivers the paper toggles via grub. */
enum class FreqDriver { IntelPstate, AcpiCpufreq };

/** @return "intel_pstate" / "acpi-cpufreq". */
const char *toString(FreqDriver d);

/**
 * CPUFreq governors. The paper's LP client uses powersave, the HP
 * client and server use performance.
 */
enum class FreqGovernor { Performance, Powersave };

/** @return governor name as sysfs spells it. */
const char *toString(FreqGovernor g);

/**
 * Idle-state selection policy. Menu is Linux's default predictor;
 * the other two bracket it for ablations: AlwaysDeepest maximises
 * power savings (and wake cost), AlwaysShallowest minimises wake
 * cost (like capping intel_idle.max_cstate at C1).
 */
enum class IdleGovernorKind { Menu, AlwaysDeepest, AlwaysShallowest };

/** @return "menu" / "always-deepest" / "always-shallowest". */
const char *toString(IdleGovernorKind k);

/** Static description of one C-state's costs. */
struct CStateSpec
{
    CState state;
    /** Wake latency paid when an event arrives during this state. */
    Time exitLatency;
    /**
     * Minimum predicted idle for which the menu governor considers
     * this state worth entering.
     */
    Time targetResidency;
    /** Per-core power drawn while resident in this state (watts). */
    double powerW = 0;
};

/** Skylake C-state latency table (intel_idle SKX values). */
std::vector<CStateSpec> skylakeCStateTable();

/**
 * Full hardware + low-level-software configuration of one machine.
 * Mirrors the knob list of paper Table II plus the microsecond-scale
 * software costs (IRQ work, context switch) that Section V-A invokes
 * when explaining the LP client's overhead.
 */
struct HwConfig
{
    std::string name = "custom";

    // --- Topology -------------------------------------------------
    /** Physical cores (one socket of a Xeon Silver 4114 = 10). */
    int cores = 10;
    /** Simultaneous multithreading: two hardware threads per core. */
    bool smt = false;
    /**
     * Throughput of each hardware thread when both siblings are busy,
     * relative to having the core alone (~0.65 on Skylake integer
     * workloads; aggregate SMT speedup ~1.3x).
     */
    double smtThroughput = 0.65;

    // --- C-states ---------------------------------------------------
    /** idle=poll: never sleep; zero wake latency (the HP client). */
    bool idlePoll = false;
    /** Enabled C-states (C0 is always implicitly available). */
    std::vector<CState> cstates = {CState::C0, CState::C1};
    /** Idle-state selection policy (kernel idle governor choice). */
    IdleGovernorKind idleGovernor = IdleGovernorKind::Menu;

    // --- DVFS -------------------------------------------------------
    FreqDriver driver = FreqDriver::AcpiCpufreq;
    FreqGovernor governor = FreqGovernor::Performance;
    double minGhz = 0.8;
    double nominalGhz = 2.2;
    double turboGhz = 3.0;
    /** Turbo mode (MSR 0x1a0 in the paper). */
    bool turbo = false;
    /**
     * Latency of a frequency transition; the paper cites ~30 us for
     * legacy DVFS [I-DVFS, Gendler et al.].
     */
    Time dvfsTransition = usec(30);
    /**
     * Utilisation sampling period of the powersave governor: a core
     * must stay busy this long before the governor re-evaluates and
     * grants the ramp target. Microsecond-scale response handlers
     * finish before this fires, so they run entirely at the wake
     * frequency — the persistent DVFS penalty of the LP client.
     */
    Time psSamplePeriod = usec(500);

    // --- Uncore -----------------------------------------------------
    /** Dynamic uncore frequency scaling (MSR 0x620); LP client only. */
    bool uncoreDynamic = false;
    /** Extra latency for I/O arriving at a package whose uncore has
     *  clocked down. */
    Time uncoreWake = usec(5);
    /** Package inactivity needed before the uncore clocks down. */
    Time uncoreIdleThreshold = usec(100);

    // --- Kernel timer -----------------------------------------------
    /** nohz: suppress the scheduling-clock tick during idle. */
    bool tickless = true;
    /** Tick period when not tickless (HZ=1000). */
    Time tickPeriod = msec(1);
    /** CPU work consumed by one tick. */
    Time tickWork = usec(1);

    // --- Software path costs (paper Section V-A) ---------------------
    /** Kernel IRQ/softirq work per network event. */
    Time irqWork = nsec(1500);
    /**
     * Scheduler wake-up of a blocked thread; the paper charges ~25 us
     * for the context switch on the measurement path (Section V-A).
     */
    Time ctxSwitch = usec(25);

    // --- Power model ---------------------------------------------------
    /**
     * Per-core active power P(f) = activePowerBaseW +
     * activePowerDynW * (f / nominalGhz)^3 — the classic V^2 f
     * scaling. Defaults land near a Skylake server core's share of
     * package power.
     */
    double activePowerBaseW = 1.0;
    double activePowerDynW = 5.0;
    /** Power of an idle=poll core spinning in its pause loop. */
    double pollPowerW = 2.0;

    /** Active power at frequency @p ghz. */
    double activePowerW(double ghz) const;

    // --- Run-to-run hardware variation --------------------------------
    /**
     * Per-machine-instance lognormal scale on C-state exit latencies
     * (board/process variation across environment resets; Maricq et
     * al. attribute up-to-10% variability to such hardware effects).
     * Applied only when the Machine is built with a non-zero seed, so
     * unit tests with exact latency expectations stay exact.
     */
    double exitLatencyJitter = 0.15;

    /** Hardware threads exposed to software. */
    int hwThreads() const { return smt ? 2 * cores : cores; }

    /** @return true if the C-state is in the enabled list. */
    bool cstateEnabled(CState s) const;

    /** Abort with a message when fields are inconsistent. */
    void validate() const;

    // --- Table II presets --------------------------------------------

    /**
     * LP (low power) client: the system's out-of-the-box default —
     * all C-states, intel_pstate + powersave, turbo on, SMT on,
     * dynamic uncore, periodic tick.
     */
    static HwConfig clientLP();

    /**
     * HP (high performance) client: empirically tuned — C-states off
     * (idle=poll), acpi-cpufreq + performance, turbo on, SMT on,
     * fixed uncore, periodic tick.
     */
    static HwConfig clientHP();

    /**
     * Server baseline: C0+C1 only, acpi-cpufreq + performance, turbo
     * off, SMT off, fixed uncore, tickless.
     */
    static HwConfig serverBaseline();

    /** Server baseline with SMT enabled (Figure 2 study). */
    static HwConfig serverSmtOn();

    /** Server baseline with C1E added (Figure 3 study). */
    static HwConfig serverC1eOn();
};

} // namespace hw
} // namespace tpv

#endif // TPV_HW_CONFIG_HH
