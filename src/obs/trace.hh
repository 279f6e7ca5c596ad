/**
 * @file
 * Flight recorder: deterministic per-request tracing for the service
 * graph.
 *
 * The TraceRecorder collects fixed-size span records — root request,
 * per-shard sub-request, hedge, retry, queue wait, service execution,
 * wire delay, cache hit/miss/fill, breaker and shed decisions, fault
 * windows — into one append-only slab. Recording sites pay one pointer test when tracing is off (the
 * ServiceGraph's recorder pointer is null) and an early-out hash when
 * a root is not sampled, keeping the 0-allocs/event hot-path gates
 * intact for untraced runs.
 *
 * Determinism: sampling is a pure seeded hash of the root id (no
 * recorder state), span content never includes host-thread or heap
 * identities, and the export orders spans by a canonical content key
 * — so the exported bytes are identical run-to-run whenever the
 * simulated behaviour is (which the golden determinism suite pins).
 *
 * Export is Chrome trace-event JSON ({"traceEvents":[...]}) using
 * nestable async events keyed by root id, loadable directly in
 * Perfetto or chrome://tracing; fault windows ride on a separate
 * process row.
 */

#ifndef TPV_OBS_TRACE_HH
#define TPV_OBS_TRACE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hh"

namespace tpv {
namespace obs {

/** Never defined: the type of ObsOptions::sink's always-null second
 *  argument. */
class MetricsRegistry;
class TraceRecorder;

/** What a span measures. */
enum class SpanKind : std::uint8_t
{
    /** A root request, client arrival to response send. */
    Root,
    /** One shard lane of a fan-out, scatter to accepted reply. */
    SubRequest,
    /** A hedge copy fired (instant). */
    Hedge,
    /** A deadline-expiry retry fired (instant). */
    Retry,
    /** Worker-queue wait, dispatch to service start (derived). */
    QueueWait,
    /** Service execution on the worker (derived from nominal work). */
    Service,
    /** One link traversal, send to delivery. */
    Wire,
    /** Keyed GET served from the cache (instant). */
    CacheHit,
    /** Keyed GET missed; a store cascade follows (instant). */
    CacheMiss,
    /** Store reply filled the cache (instant). */
    CacheFill,
    /** The cache evicted a victim (instant). */
    CacheEvict,
    /** A lane skipped a replica behind an open breaker (instant). */
    BreakerSkip,
    /** A circuit breaker changed state (instant; arg = new state). */
    BreakerOpen,
    /** Admission control shed the request on queue depth (instant;
     *  arg = 1). */
    Shed,
    /** An injected fault window (global marker, rootId 0). */
    Fault,
};

/** @return span-kind name ("root", "sub", "queue", ...). */
const char *toString(SpanKind k);

/** True for kinds with duration (the rest are instants). */
bool isDuration(SpanKind k);

/** One recorded span: 32 bytes, trivially copyable, slab-stored. */
struct SpanRecord
{
    Time start = 0;
    /** == start for instant kinds. */
    Time end = 0;
    /** Root request this span belongs to; 0 = global marker. */
    std::uint64_t rootId = 0;
    /** Kind-specific payload (bytes, attempt, reason; 0 for faults
     *  and evictions). */
    std::uint32_t arg = 0;
    SpanKind kind = SpanKind::Root;
    /** Tier index; 0xff = outside any tier (client side). */
    std::uint8_t tier = 0xff;
    std::int16_t shard = -1;
    std::int16_t replica = -1;
};

/**
 * Where a span happened: tier index, shard and replica, -1 for none
 * (a tier of -1 is the client side, exported as tier 0xff).
 */
struct SpanSite
{
    int tier = -1;
    int shard = -1;
    int replica = -1;

    bool operator==(const SpanSite &) const = default;
};

/**
 * Observability knobs of one run, carried by core::ExperimentConfig.
 * Everything defaults off: an ObsOptions-free run records nothing,
 * allocates nothing, and stays bit-identical to pre-obs builds.
 */
struct ObsOptions
{
    /** Enable span recording. */
    bool trace = false;
    /** Head-based sampling: record roots whose seeded hash lands on
     *  0 mod N (<= 1 records every root). */
    std::uint32_t sampleEveryN = 1;
    /**
     * Keep the N slowest completed root requests in the export
     * regardless of sampling (the tail explainer's input). While
     * > 0 the recorder records every root and filters at export.
     */
    int tailN = 0;
    /** Span cap; the slab stops growing past it and the recorder
     *  reports truncated(). */
    std::size_t maxSpans = std::size_t(1) << 20;
    /**
     * Called at the end of the run, before teardown, with the run's
     * recorder (null when tracing is off) — the hook tests and
     * examples use to export. The second argument is always null; it
     * stays so that existing two-argument sinks keep compiling.
     */
    std::function<void(const TraceRecorder *, const MetricsRegistry *)>
        sink;
};

/**
 * Per-run span store. Construct before the run, install on the
 * ServiceGraph, export after the run.
 */
class TraceRecorder
{
  public:
    /**
     * Key of a span whose begin and end happen at different call
     * sites (root arrival/response, dispatch/completion, scatter/
     * reply). Exact-match composite — a hash collision degrades to a
     * probe, never to a wrong pairing.
     */
    struct OpenKey
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        SpanKind kind = SpanKind::Root;
        SpanSite site{};

        bool operator==(const OpenKey &) const = default;
    };

    /** A tail-explainer entry: one slow root and its spans. */
    struct TailRoot
    {
        SpanRecord root;
        /** Every span of the root, canonically ordered. */
        std::vector<SpanRecord> spans;
    };

    /**
     * @param opts sampling/tail/cap knobs (sampleEveryN, tailN,
     * maxSpans); @p seed the run seed (the sampling hash mixes it).
     */
    TraceRecorder(const ObsOptions &opts, std::uint64_t seed);

    /** Is @p rootId head-sampled? Pure function of (seed, rootId). */
    bool sampled(std::uint64_t rootId) const;

    /**
     * Should hooks record spans of @p rootId at all? True when the
     * root is sampled or a tail ring is requested (then everything
     * is recorded and the export filters).
     */
    bool
    wants(std::uint64_t rootId) const
    {
        return tailN_ > 0 || sampled(rootId);
    }

    /**
     * The span builder every recording site goes through: record a
     * span of @p kind over [@p start, @p end] at @p site with payload
     * @p arg — if the recorder wants @p rootId at all (see wants()).
     */
    void span(SpanKind kind, Time start, Time end, std::uint64_t rootId,
              SpanSite site = {}, std::uint32_t arg = 0);

    /** span() of an instant (end == start). */
    void
    instant(SpanKind kind, Time at, std::uint64_t rootId,
            SpanSite site = {}, std::uint32_t arg = 0)
    {
        span(kind, at, at, rootId, site, arg);
    }

    /** A global marker (rootId 0, always recorded and exported): a
     *  breaker transition, a cache eviction, a fault window. */
    void marker(SpanKind kind, Time start, Time end, SpanSite site,
                std::uint32_t arg = 0);

    /**
     * Open a begin/end span of @p rootId (nothing when the recorder
     * does not want the root); a duplicate key overwrites (a retry
     * restarting a lane supersedes the dead attempt).
     */
    void begin(const OpenKey &key, Time start, std::uint64_t rootId);

    /**
     * Close an open span, filling @p start / @p rootId from the
     * begin. @return false when no begin was recorded (the span is
     * then skipped).
     */
    bool end(const OpenKey &key, Time *start, std::uint64_t *rootId);

    /**
     * Close the open span @p key at @p end and record it with the
     * key's kind, tier and shard, on @p replica, with payload @p arg.
     * Records nothing when no begin was recorded.
     */
    void close(const OpenKey &key, Time end, int replica,
               std::uint32_t arg);

    /** Spans recorded. */
    std::uint64_t recorded() const { return spans_.size(); }

    /** True when the slab hit maxSpans and dropped spans. */
    bool truncated() const { return truncated_; }

    /**
     * The export set: spans of sampled roots, of the tailN slowest
     * completed roots, and global markers — canonically ordered by
     * content (start, rootId, kind, tier, shard, replica, end, arg).
     */
    std::vector<SpanRecord> exportSpans() const;

    /** Chrome trace-event JSON of exportSpans() (Perfetto-loadable);
     *  byte-identical run-to-run. */
    std::string exportJson() const;

    /** The @p n slowest completed roots (latency desc, id asc), each
     *  with its full span set — the tail explainer's data. */
    std::vector<TailRoot> slowestRoots(int n) const;

  private:
    struct OpenKeyHash
    {
        std::size_t operator()(const OpenKey &k) const;
    };

    struct OpenValue
    {
        Time start = 0;
        std::uint64_t rootId = 0;
    };

    /** Append a finished span to the slab (the builder's one write). */
    void record(SpanKind kind, Time start, Time end, std::uint64_t rootId,
                SpanSite site, std::uint32_t arg);

    std::uint32_t sampleEveryN_ = 1;
    int tailN_ = 0;
    std::size_t maxSpans_ = 0;
    std::uint64_t seedMix_ = 0;
    std::vector<SpanRecord> spans_;
    std::unordered_map<OpenKey, OpenValue, OpenKeyHash> open_;
    bool truncated_ = false;
};

} // namespace obs
} // namespace tpv

#endif // TPV_OBS_TRACE_HH
