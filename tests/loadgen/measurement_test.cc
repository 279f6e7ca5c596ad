/** @file Tests for the latency recorder. */

#include "loadgen/recorder.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "loadgen/selfcheck.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace tpv {
namespace loadgen {
namespace {

TEST(Recorder, WindowFiltersSamples)
{
    LatencyRecorder r;
    r.setWindow(usec(100), usec(200));
    r.recordLatency(usec(50), 1.0);   // before window
    r.recordLatency(usec(150), 2.0);  // inside
    r.recordLatency(usec(200), 3.0);  // at end: excluded (half-open)
    ASSERT_EQ(r.latencies().size(), 1u);
    EXPECT_DOUBLE_EQ(r.latencies()[0], 2.0);
}

TEST(Recorder, WindowBoundaryInclusiveAtStart)
{
    LatencyRecorder r;
    r.setWindow(usec(100), usec(200));
    r.recordLatency(usec(100), 1.0);
    EXPECT_EQ(r.latencies().size(), 1u);
}

TEST(Recorder, CountsAreWindowIndependent)
{
    LatencyRecorder r;
    r.setWindow(usec(100), usec(200));
    r.countSent();
    r.countSent();
    r.countReceived();
    EXPECT_EQ(r.sent(), 2u);
    EXPECT_EQ(r.received(), 1u);
}

/** Swallows whatever a link delivers. */
struct NullSink : net::Endpoint
{
    void onMessage(const net::Message &) override {}
};

TEST(Recorder, LatenessAndInterarrivalStreams)
{
    // Lateness lands in the recorder; the realised send gaps are
    // collected beside it, per connection, inside the same window.
    Simulator sim;
    net::Link link(sim, Rng(1));
    NullSink sink;
    LatencyRecorder r;
    r.setWindow(usec(100), usec(1000));
    std::vector<double> gaps;
    watchSendGaps(link, r, gaps);
    const auto send = [&](std::uint16_t conn, Time at) {
        net::Message m;
        m.conn = conn;
        m.appSendTime = at;
        link.send(m, sink);
    };
    send(0, usec(10));   // before the window: no gap, but remembered
    send(0, usec(50));   // still before the window: no gap
    send(0, usec(110));  // 60us after conn 0's last send
    send(1, usec(120));  // conn 1's first send: no gap
    send(1, usec(150));  // 30us after conn 1's last send
    send(0, usec(1000)); // window end is exclusive: no gap
    r.recordLateness(usec(10), 7.0);
    r.recordLateness(usec(110), 5.0);
    ASSERT_EQ(gaps.size(), 2u);
    EXPECT_DOUBLE_EQ(gaps[0], 60.0);
    EXPECT_DOUBLE_EQ(gaps[1], 30.0);
    EXPECT_EQ(r.lateness().size(), 1u);
    EXPECT_DOUBLE_EQ(r.latenessSummary().mean, 5.0);
}

TEST(Recorder, SummaryOfLatencies)
{
    LatencyRecorder r;
    r.setWindow(0, usec(1000));
    for (int i = 1; i <= 100; ++i)
        r.recordLatency(usec(i), static_cast<double>(i));
    const auto s = r.latencySummary();
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    EXPECT_NEAR(s.p99, 99.01, 0.01);
}

TEST(RecorderDeathTest, RejectsEmptyWindow)
{
    LatencyRecorder r;
    EXPECT_DEATH(r.setWindow(usec(10), usec(10)), "empty");
}

TEST(Recorder, SummarizeInPlaceMatchesCopyingSummaries)
{
    LatencyRecorder r;
    r.setWindow(0, usec(1000));
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) {
        r.recordLatency(usec(i % 900), rng.lognormalMeanSd(60.0, 25.0));
        r.recordLateness(usec(i % 900), rng.exponential(3.0));
    }
    const std::vector<double> arrival = r.latencies();
    const stats::Summary lat = r.latencySummary();
    const stats::Summary late = r.latenessSummary();
    const auto [latIn, lateIn] = r.summarizeInPlace();
    // Bit for bit: the sums run over the same sorted order.
    for (const auto &[a, b] : {std::pair{lat, latIn}, std::pair{late, lateIn}}) {
        EXPECT_EQ(a.count, b.count);
        for (auto f : {&stats::Summary::mean, &stats::Summary::stdev,
                       &stats::Summary::min, &stats::Summary::max,
                       &stats::Summary::median, &stats::Summary::p90,
                       &stats::Summary::p95, &stats::Summary::p99}) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.*f),
                      std::bit_cast<std::uint64_t>(b.*f));
        }
    }
    EXPECT_TRUE(std::is_sorted(r.latencies().begin(), r.latencies().end()));
    EXPECT_TRUE(std::is_sorted(r.lateness().begin(), r.lateness().end()));
    EXPECT_EQ(r.latencies(), stats::sorted(arrival));
}

} // namespace
} // namespace loadgen
} // namespace tpv
