#include "obs/trace.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <tuple>
#include <unordered_set>

#include "sim/logging.hh"

namespace tpv {
namespace obs {

namespace {

/** splitmix64: the statistically-solid 64-bit mixer the sampling hash
 *  is built on (pure, stateless — the determinism requirement). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Canonical export order: pure span content, never recording
 *  order. */
bool
contentLess(const SpanRecord &a, const SpanRecord &b)
{
    return std::make_tuple(a.start, a.rootId,
                           static_cast<int>(a.kind), a.tier, a.shard,
                           a.replica, a.end, a.arg) <
           std::make_tuple(b.start, b.rootId,
                           static_cast<int>(b.kind), b.tier, b.shard,
                           b.replica, b.end, b.arg);
}

void
append(std::string &out, const char *fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void
append(std::string &out, const char *fmt, ...)
{
    char buf[320];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min<std::size_t>(
                            static_cast<std::size_t>(n),
                            sizeof buf - 1));
}

} // namespace

const char *
toString(SpanKind k)
{
    switch (k) {
      case SpanKind::Root:
        return "root";
      case SpanKind::SubRequest:
        return "sub";
      case SpanKind::Hedge:
        return "hedge";
      case SpanKind::Retry:
        return "retry";
      case SpanKind::QueueWait:
        return "queue";
      case SpanKind::Service:
        return "service";
      case SpanKind::Wire:
        return "wire";
      case SpanKind::CacheHit:
        return "cache_hit";
      case SpanKind::CacheMiss:
        return "cache_miss";
      case SpanKind::CacheFill:
        return "cache_fill";
      case SpanKind::CacheEvict:
        return "cache_evict";
      case SpanKind::BreakerSkip:
        return "breaker_skip";
      case SpanKind::BreakerOpen:
        return "breaker";
      case SpanKind::Shed:
        return "shed";
      case SpanKind::Fault:
        return "fault";
    }
    return "?";
}

bool
isDuration(SpanKind k)
{
    switch (k) {
      case SpanKind::Root:
      case SpanKind::SubRequest:
      case SpanKind::QueueWait:
      case SpanKind::Service:
      case SpanKind::Wire:
      case SpanKind::Fault:
        return true;
      default:
        return false;
    }
}

std::size_t
TraceRecorder::OpenKeyHash::operator()(const OpenKey &k) const
{
    std::uint64_t h = mix64(k.id);
    h = mix64(h ^ k.parent);
    h = mix64(h ^ (static_cast<std::uint64_t>(k.kind) << 48) ^
              (static_cast<std::uint64_t>(
                   static_cast<std::uint8_t>(k.site.tier))
               << 40) ^
              (static_cast<std::uint64_t>(
                   static_cast<std::uint16_t>(k.site.shard))
               << 16) ^
              static_cast<std::uint16_t>(k.site.replica));
    return static_cast<std::size_t>(h);
}

TraceRecorder::TraceRecorder(const ObsOptions &opts, std::uint64_t seed)
    : sampleEveryN_(opts.sampleEveryN), tailN_(opts.tailN),
      maxSpans_(opts.maxSpans), seedMix_(mix64(seed))
{
    // Pre-size the slab (fixed-size records, geometric growth only up
    // to the cap) and the open table, so steady-state recording
    // touches the allocator rarely and predictably.
    spans_.reserve(std::min<std::size_t>(maxSpans_, 1u << 15));
    open_.reserve(1024);
}

bool
TraceRecorder::sampled(std::uint64_t rootId) const
{
    if (sampleEveryN_ <= 1)
        return true;
    return mix64(rootId ^ seedMix_) % sampleEveryN_ == 0;
}

void
TraceRecorder::record(SpanKind kind, Time start, Time end,
                      std::uint64_t rootId, SpanSite site,
                      std::uint32_t arg)
{
    if (spans_.size() >= maxSpans_) {
        if (!truncated_) {
            truncated_ = true;
            warn("trace slab full (", maxSpans_,
                 " spans); further spans dropped");
        }
        return;
    }
    spans_.push_back(SpanRecord{start, end, rootId, arg, kind,
                                static_cast<std::uint8_t>(site.tier),
                                static_cast<std::int16_t>(site.shard),
                                static_cast<std::int16_t>(site.replica)});
}

void
TraceRecorder::span(SpanKind kind, Time start, Time end,
                    std::uint64_t rootId, SpanSite site, std::uint32_t arg)
{
    if (wants(rootId))
        record(kind, start, end, rootId, site, arg);
}

void
TraceRecorder::marker(SpanKind kind, Time start, Time end, SpanSite site,
                      std::uint32_t arg)
{
    record(kind, start, end, 0, site, arg);
}

void
TraceRecorder::begin(const OpenKey &key, Time start, std::uint64_t rootId)
{
    if (wants(rootId))
        open_[key] = OpenValue{start, rootId};
}

bool
TraceRecorder::end(const OpenKey &key, Time *start, std::uint64_t *rootId)
{
    auto it = open_.find(key);
    if (it == open_.end())
        return false;
    *start = it->second.start;
    *rootId = it->second.rootId;
    open_.erase(it);
    return true;
}

void
TraceRecorder::close(const OpenKey &key, Time end, int replica,
                     std::uint32_t arg)
{
    Time start = 0;
    std::uint64_t rootId = 0;
    if (this->end(key, &start, &rootId))
        span(key.kind, start, end, rootId,
             {key.site.tier, key.site.shard, replica}, arg);
}

std::vector<SpanRecord>
TraceRecorder::exportSpans() const
{
    // The tail set: the tailN slowest completed roots, kept in the
    // export regardless of sampling. Selected here — offline — from
    // the Root spans themselves, so the run pays no ring bookkeeping.
    std::unordered_set<std::uint64_t> tail;
    if (tailN_ > 0) {
        std::vector<const SpanRecord *> roots;
        for (const SpanRecord &s : spans_) {
            if (s.kind == SpanKind::Root)
                roots.push_back(&s);
        }
        std::sort(roots.begin(), roots.end(),
                  [](const SpanRecord *a, const SpanRecord *b) {
                      const Time da = a->end - a->start;
                      const Time db = b->end - b->start;
                      if (da != db)
                          return da > db;
                      return a->rootId < b->rootId;
                  });
        const std::size_t n = std::min<std::size_t>(
            roots.size(), static_cast<std::size_t>(tailN_));
        for (std::size_t i = 0; i < n; ++i)
            tail.insert(roots[i]->rootId);
    }

    std::vector<SpanRecord> out;
    for (const SpanRecord &s : spans_) {
        if (s.rootId == 0 || sampled(s.rootId) || tail.count(s.rootId) != 0)
            out.push_back(s);
    }
    std::sort(out.begin(), out.end(), contentLess);
    return out;
}

std::string
TraceRecorder::exportJson() const
{
    const std::vector<SpanRecord> spans = exportSpans();
    std::string out;
    out.reserve(160 * spans.size() + 256);
    out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
           "\"args\":{\"name\":\"tpv requests\"}},\n";
    out += "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
           "\"args\":{\"name\":\"tpv faults\"}}";

    for (const SpanRecord &s : spans) {
        // Timestamps in microseconds with fixed millinanosecond
        // precision: Time is integer nanoseconds, so %.3f is exact
        // and byte-stable.
        const double ts = static_cast<double>(s.start) / 1000.0;
        const double dur =
            static_cast<double>(s.end - s.start) / 1000.0;
        const int tid = s.tier == 0xff ? 0 : s.tier + 1;
        const unsigned long long id =
            static_cast<unsigned long long>(s.rootId);
        const char *name = toString(s.kind);
        if (s.kind == SpanKind::Fault) {
            // Fault windows (replica crashes): complete events on
            // their own process row. args.kind is always 0, kept so
            // exported traces keep their schema.
            append(out,
                   ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%d,"
                   "\"name\":\"fault\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"kind\":%u,\"replica\":%d}}",
                   tid, ts, dur, s.arg, s.replica);
            continue;
        }
        if (isDuration(s.kind)) {
            // Nestable async begin/end keyed by root id: Perfetto
            // groups one request's spans on one track and stacks
            // overlap by depth.
            append(out,
                   ",\n{\"ph\":\"b\",\"cat\":\"req\","
                   "\"id\":\"0x%llx\",\"pid\":1,\"tid\":%d,"
                   "\"name\":\"%s\",\"ts\":%.3f,"
                   "\"args\":{\"tier\":%d,\"shard\":%d,"
                   "\"replica\":%d,\"arg\":%u}}",
                   id, tid, name, ts, s.tier == 0xff ? -1 : s.tier,
                   s.shard, s.replica, s.arg);
            append(out,
                   ",\n{\"ph\":\"e\",\"cat\":\"req\","
                   "\"id\":\"0x%llx\",\"pid\":1,\"tid\":%d,"
                   "\"name\":\"%s\",\"ts\":%.3f}",
                   id, tid, name, ts + dur);
            continue;
        }
        append(out,
               ",\n{\"ph\":\"n\",\"cat\":\"req\",\"id\":\"0x%llx\","
               "\"pid\":1,\"tid\":%d,\"name\":\"%s\",\"ts\":%.3f,"
               "\"args\":{\"tier\":%d,\"shard\":%d,\"replica\":%d,"
               "\"arg\":%u}}",
               id, tid, name, ts, s.tier == 0xff ? -1 : s.tier,
               s.shard, s.replica, s.arg);
    }
    out += "\n]}\n";
    return out;
}

std::vector<TraceRecorder::TailRoot>
TraceRecorder::slowestRoots(int n) const
{
    std::vector<SpanRecord> roots;
    for (const SpanRecord &s : spans_) {
        if (s.kind == SpanKind::Root)
            roots.push_back(s);
    }
    std::sort(roots.begin(), roots.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  const Time da = a.end - a.start;
                  const Time db = b.end - b.start;
                  if (da != db)
                      return da > db;
                  return a.rootId < b.rootId;
              });
    if (n >= 0 && roots.size() > static_cast<std::size_t>(n))
        roots.resize(static_cast<std::size_t>(n));

    std::vector<TailRoot> out;
    out.reserve(roots.size());
    for (const SpanRecord &root : roots) {
        TailRoot entry;
        entry.root = root;
        for (const SpanRecord &s : spans_) {
            if (s.rootId == root.rootId)
                entry.spans.push_back(s);
        }
        std::sort(entry.spans.begin(), entry.spans.end(),
                  contentLess);
        out.push_back(std::move(entry));
    }
    return out;
}

} // namespace obs
} // namespace tpv
