/**
 * @file
 * IRQ-delivery integration between Link, Machine and endpoints —
 * the client-side receive path of Section II.
 */

#include "hw/machine.hh"
#include "net/link.hh"

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace tpv {
namespace net {
namespace {

hw::HwConfig
receiverConfig()
{
    hw::HwConfig c;
    c.cores = 2;
    c.cstates = {hw::CState::C0, hw::CState::C1E};
    c.tickless = true;
    c.irqWork = usec(2);
    return c;
}

/** Endpoint that forwards into a machine like a NIC would. */
struct NicEndpoint : Endpoint
{
    Simulator &sim;
    hw::Machine &machine;
    Time handledAt = -1;

    NicEndpoint(Simulator &s, hw::Machine &m) : sim(s), machine(m) {}

    void
    onMessage(const Message &m) override
    {
        machine.deliverIrq(static_cast<std::size_t>(m.conn),
                           machine.config().irqWork,
                           [this] { handledAt = sim.now(); });
    }
};

TEST(NicPath, LinkToMachineDelivery)
{
    Simulator sim;
    hw::Machine m(sim, receiverConfig());
    NicEndpoint nic(sim, m);
    Link::Params p;
    p.baseLatency = usec(5);
    p.jitterFrac = 0;
    Link link(sim, Rng(3), p);

    Message msg;
    msg.conn = 1;
    link.send(msg, nic);
    sim.run();
    // 5us wire + 2us IRQ work on an awake-from-C0 core (no history ->
    // shallow state with zero exit latency).
    EXPECT_EQ(nic.handledAt, usec(5) + usec(2));
}

TEST(NicPath, SleepingCorePaysExitLatencyOnRx)
{
    Simulator sim;
    hw::Machine m(sim, receiverConfig());
    NicEndpoint nic(sim, m);
    Link::Params p;
    p.baseLatency = usec(5);
    p.jitterFrac = 0;
    Link link(sim, Rng(3), p);

    // Teach core 0 that idles run ~100us so it sleeps into C1E.
    for (int i = 1; i <= 8; ++i)
        sim.at(usec(100) * i, [&] { m.thread(0).submit(usec(1), nullptr); });
    sim.run();
    ASSERT_EQ(m.core(0).currentCState(), hw::CState::C1E);

    const Time t0 = sim.now();
    Message msg;
    msg.conn = 0;
    link.send(msg, nic);
    sim.run();
    // wire 5us + C1E exit 10us + irq 2us.
    EXPECT_EQ(nic.handledAt, t0 + usec(5) + usec(10) + usec(2));
}

TEST(NicPath, RssSteeringByConnection)
{
    Simulator sim;
    hw::Machine m(sim, receiverConfig());
    NicEndpoint nic(sim, m);
    Link link(sim, Rng(3));

    Message msg;
    msg.conn = 1; // steer to core 1
    link.send(msg, nic);
    sim.run();
    EXPECT_GT(m.core(1).thread(0).tasksCompleted(), 0u);
    EXPECT_EQ(m.core(0).thread(0).tasksCompleted(), 0u);
}

} // namespace
} // namespace net
} // namespace tpv
