/**
 * @file
 * Run fingerprints, host clocks and the benchmark's span log.
 */

#include <sys/resource.h>

#include <ctime>

#include <atomic>
#include <cstdio>
#include <functional>
#include <queue>
#include <thread>

#include "bench.hh"

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::uint64_t
probeKernel(std::uint64_t seed, long steps)
{
    auto next = [&seed] {
        seed += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = seed;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    // A 4096-deep event heap plus random reads and writes over a
    // 512 KiB table: the cache footprint of one simulated run, small
    // enough that the probe never sets the process's peak RSS.
    using Entry = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::vector<std::uint64_t> table(1 << 16);
    for (std::uint32_t i = 0; i < 4096; ++i)
        heap.push({next() & 0xfffff, i});
    std::uint64_t acc = 0;
    for (long i = 0; i < steps; ++i) {
        const auto [when, v] = heap.top();
        heap.pop();
        const auto key = static_cast<std::uint32_t>(next() & 0xffff);
        table[key] += v;
        acc += table[key];
        heap.push({when + (next() & 1023), v ^ key});
    }
    return acc;
}

} // namespace

double
hostProbeCpuSeconds(int threads)
{
    std::vector<std::uint64_t> acc(static_cast<std::size_t>(threads));
    const double cpu0 = processCpuSeconds();
    std::vector<std::thread> crew;
    for (int t = 0; t < threads; ++t) {
        crew.emplace_back([&acc, t] {
            acc[static_cast<std::size_t>(t)] =
                probeKernel(static_cast<std::uint64_t>(t) + 1, 600000);
        });
    }
    for (std::thread &th : crew)
        th.join();
    const double cpu = processCpuSeconds() - cpu0;
    // The kernel's results must stay observable or it could be elided.
    std::uint64_t sum = 0;
    for (std::uint64_t v : acc)
        sum += v;
    return sum == 0x5eed ? cpu + 1e-9 : cpu;
}

int
hostThreadId()
{
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
}

std::uint64_t
mixDigest(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

/** Canonical text of a run's outputs; doubles print as hexfloats so
 *  the fingerprint is exact, not rounded. */
class Canon
{
  public:
    void
    u(std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu,",
                      static_cast<unsigned long long>(v));
        s_ += buf;
    }
    void
    i(std::int64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld,", static_cast<long long>(v));
        s_ += buf;
    }
    void
    d(double v)
    {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%a,", v);
        s_ += buf;
    }
    void
    str(const std::string &v)
    {
        s_ += v;
        s_ += ',';
    }
    void
    summary(const tpv::stats::Summary &x)
    {
        u(x.count);
        for (double v : {x.mean, x.stdev, x.min, x.max, x.median, x.p90,
                         x.p95, x.p99})
            d(v);
    }
    void
    machine(const tpv::hw::MachineStats &m)
    {
        u(m.wakes);
        i(m.exitLatencyPaid);
        u(m.freqTransitions);
        u(m.irqsDelivered);
        u(m.uncoreWakePenalties);
        d(m.energyJoules);
    }
    std::uint64_t
    digest() const
    {
        std::uint64_t h = kDigestSeed;
        for (unsigned char c : s_) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        return h;
    }

  private:
    std::string s_;
};

} // namespace

std::uint64_t
fingerprint(const tpv::core::RunResult &r)
{
    Canon c;
    c.summary(r.latency);
    c.summary(r.sendLateness);
    c.u(r.sent);
    c.u(r.received);
    c.u(r.receivedWithinSlo);
    c.u(r.events);
    c.machine(r.clientHw);
    c.machine(r.serverHw);
    const tpv::svc::ServiceStats &s = r.service;
    for (std::uint64_t v :
         {s.requestsReceived, s.responsesSent, s.subRequestsSent,
          s.hedgesSent, s.hedgesCancelled, s.duplicatesDiscarded,
          s.hedgesSuppressed, s.tiedSent, s.tiedCancelledBeforeRun,
          s.faultsInjected, s.requestsFailedOver, s.requestsLost,
          s.requestsRetried, s.retriesSuppressed, s.subRequestsDropped,
          s.requestsShedDepth, s.requestsShedDelay, s.breakerOpens,
          s.breakerSkips, s.breakerProbes, s.cacheHits, s.cacheMisses,
          s.cacheFills, s.cacheEvictions, s.cacheFlushes})
        c.u(v);
    for (tpv::Time v : {s.serviceWorkDispatched, s.duplicateWorkDispatched,
                        s.pauseTime})
        c.i(v);
    for (const tpv::svc::TierBreakdown &t : s.tiers) {
        c.str(t.name);
        c.u(t.requestsDispatched);
        c.i(t.workDispatched);
        c.u(t.requestsLost);
        c.u(t.requestsShed);
        c.u(t.faultsInjected);
        c.i(t.replyP95);
        c.u(t.cacheHits);
        c.u(t.cacheMisses);
        for (std::uint64_t v : t.shardRequests)
            c.u(v);
        for (tpv::Time v : t.shardWork)
            c.i(v);
    }
    return c.digest();
}

void
SpanLog::add(const std::string &name, const char *cat, int tid,
             Clock::time_point start, Clock::time_point end,
             const std::vector<std::pair<std::string, double>> &args)
{
    if (!enabled_)
        return;
    auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - t0_).count();
    };
    Span s{name, cat, tid, us(start), us(end) - us(start), args};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
}

bool
SpanLog::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {",
                     s.name.c_str(), s.cat, s.tid, s.startUs, s.durUs);
        for (std::size_t a = 0; a < s.args.size(); ++a) {
            std::fprintf(f, "%s\"%s\": %.17g", a ? ", " : "",
                         s.args[a].first.c_str(), s.args[a].second);
        }
        std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
