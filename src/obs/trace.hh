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
    /** The cache evicted a victim, or was flushed (instant). */
    CacheEvict,
    /** A lane skipped a replica behind an open breaker (instant). */
    BreakerSkip,
    /** A circuit breaker changed state (instant; arg = new state). */
    BreakerOpen,
    /** Admission control shed the request (instant; arg = reason). */
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
    /** Kind-specific payload (bytes, attempt, reason, fault kind). */
    std::uint32_t arg = 0;
    SpanKind kind = SpanKind::Root;
    /** Tier index; 0xff = outside any tier (client side). */
    std::uint8_t tier = 0xff;
    std::int16_t shard = -1;
    std::int16_t replica = -1;
};

/** Recorder knobs (the trace part of ObsOptions). */
struct TraceConfig
{
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
    std::uint32_t sampleEveryN = 1;
    int tailN = 0;
    std::size_t maxSpans = std::size_t(1) << 20;
    /** Timeline-metrics sampling period; 0 disables metrics. */
    Time metricsPeriod = 0;
    /**
     * Called at the end of the run, before teardown, with the run's
     * recorder and registry (null for whichever is disabled) — the
     * hook tests and examples use to export.
     */
    std::function<void(const TraceRecorder *, const MetricsRegistry *)>
        sink;

    bool any() const { return trace || metricsPeriod > 0; }

    TraceConfig
    traceConfig() const
    {
        TraceConfig t;
        t.sampleEveryN = sampleEveryN;
        t.tailN = tailN;
        t.maxSpans = maxSpans;
        return t;
    }
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
        std::uint8_t tier = 0xff;
        std::int16_t shard = -1;
        std::int16_t replica = -1;

        bool
        operator==(const OpenKey &o) const
        {
            return id == o.id && parent == o.parent &&
                   kind == o.kind && tier == o.tier &&
                   shard == o.shard && replica == o.replica;
        }
    };

    /** A tail-explainer entry: one slow root and its spans. */
    struct TailRoot
    {
        SpanRecord root;
        /** Every span of the root, canonically ordered. */
        std::vector<SpanRecord> spans;
    };

    /**
     * @param cfg sampling/tail/cap knobs; @p seed the run seed (the
     * sampling hash mixes it).
     */
    TraceRecorder(const TraceConfig &cfg, std::uint64_t seed);

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
        return cfg_.tailN > 0 || sampled(rootId);
    }

    /** Append a finished span to the slab. */
    void record(const SpanRecord &span);

    /** Open a begin/end span; a duplicate key overwrites (a retry
     *  restarting a lane supersedes the dead attempt). */
    void begin(const OpenKey &key, Time start, std::uint64_t rootId,
               std::uint32_t arg);

    /**
     * Close an open span, filling @p start / @p rootId / @p arg from
     * the begin. @return false when no begin was recorded (the span
     * is then skipped).
     */
    bool end(const OpenKey &key, Time *start, std::uint64_t *rootId,
             std::uint32_t *arg);

    /** Spans recorded. */
    std::uint64_t recorded() const { return spans_.size(); }

    /** True when the slab hit maxSpans and dropped spans. */
    bool truncated() const { return truncated_; }

    const TraceConfig &config() const { return cfg_; }

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
        std::uint32_t arg = 0;
    };

    TraceConfig cfg_;
    std::uint64_t seedMix_ = 0;
    std::vector<SpanRecord> spans_;
    std::unordered_map<OpenKey, OpenValue, OpenKeyHash> open_;
    bool truncated_ = false;
};

} // namespace obs
} // namespace tpv

#endif // TPV_OBS_TRACE_HH
