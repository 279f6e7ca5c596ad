/**
 * @file
 * Keyed-workload model for the memcached tier: the Facebook ETC
 * size/op fits (Atikoglu et al., SIGMETRICS'12 — mutilate's fb_key /
 * fb_value parameters) plus Zipfian key popularity over a finite
 * keyspace. The popularity half is what turns "every GET costs the
 * same" into the production cache phenomena the studies need: hot
 * keys concentrating on one shard, hit rates set by how much of the
 * skewed mass a finite cache can hold, and misses that fall through
 * to a slow backing store.
 *
 * KeyspaceModel is the single keyed-workload interface shared by the
 * ETC generator, the cache tier and (eventually) the trace replayer.
 */

#ifndef TPV_SVC_KEYSPACE_HH
#define TPV_SVC_KEYSPACE_HH

#include <cstdint>

#include "sim/random.hh"

namespace tpv {
namespace svc {

/** Request opcodes for Message::kind. */
enum class MemcachedOp : std::uint8_t { Get = 0, Set = 1 };

/**
 * O(1) Zipf(skew) sampler over ranks [0, n) by Hörmann & Derflinger's
 * rejection-inversion (the method behind Apache Commons'
 * RejectionInversionZipfSampler): no O(n) zeta-table precompute, so a
 * sampler over a 2^32 keyspace costs the same to build as one over
 * 2^10. Rank 0 is the hottest key. A non-positive skew degrades to
 * the uniform distribution (the no-skew control). A keyed run carries
 * ranks in the 32-bit Message::key, so its keyspace is at most 2^32
 * keys (CacheShape::validate() enforces it).
 */
class ZipfSampler
{
  public:
    ZipfSampler() = default;

    /** @param n keyspace size (>= 1); @param skew Zipf exponent. */
    ZipfSampler(std::uint64_t n, double skew);

    /** Draw a rank in [0, n). Deterministic given the rng stream. */
    std::uint64_t operator()(Rng &rng) const;

    std::uint64_t keys() const { return n_; }
    double skew() const { return skew_; }

    /**
     * Analytic probability of rank @p k (0-based): k^-s / H(n, s).
     * O(n) in the normaliser on first principles — test/report use
     * only, not the sampling path.
     */
    double pmf(std::uint64_t k) const;

  private:
    double hIntegral(double x) const;
    double h(double x) const;
    double hIntegralInverse(double x) const;

    std::uint64_t n_ = 1;
    double skew_ = 0;
    /** Precomputed rejection-inversion constants. */
    double hX1_ = 0;
    double hN_ = 0;
    double s_ = 0;
};

/**
 * The keyed memcached workload: ETC size/op fits plus Zipf key
 * popularity. With keys == 0 (the default) the model is unkeyed —
 * sizes and ops only — which is what the single-tier server uses.
 */
struct KeyspaceModel
{
    /** P(GET); ETC is ~30:1 GET:SET. */
    double getFraction = 0.968;
    /** Key size: GEV(mu, sigma, xi) in bytes. */
    double keyMu = 30.7984;
    double keySigma = 8.20449;
    double keyXi = 0.078688;
    /** Value size: GPD(mu, sigma, xi) in bytes. */
    double valueMu = 15.0;
    double valueSigma = 214.476;
    double valueXi = 0.348238;
    /** Clamp for pathological GPD draws. */
    double valueMax = 8192.0;

    // ---- key popularity (0 keys = unkeyed, the historical model) ----

    /** Keyspace size; requests draw a Zipf rank in [0, keys). */
    std::uint64_t keys = 0;
    /** Zipf exponent (0.99 is the YCSB-style default; <= 0 uniform). */
    double skew = 0.99;

    /** Draw a key size in bytes. */
    std::uint32_t sampleKeyBytes(Rng &rng) const;
    /** Draw a value size in bytes (unkeyed: i.i.d. per request). */
    std::uint32_t sampleValueBytes(Rng &rng) const;
    /** Draw an opcode. */
    MemcachedOp sampleOp(Rng &rng) const;
    /** Wire size of a request with the drawn key/value. */
    std::uint32_t requestBytes(MemcachedOp op, std::uint32_t key,
                               std::uint32_t value) const;

    /**
     * Value size of key @p key — the keyed replacement for
     * sampleValueBytes: a value's size is a property of the key, not
     * re-drawn per request, so every replica's cache, the backing
     * store and the SET path agree on it. Deterministic
     * inverse-transform GPD on a hash of the key; same fit, same
     * clamp, no rng stream consumed.
     */
    std::uint32_t valueBytesForKey(std::uint64_t key) const;
};

} // namespace svc
} // namespace tpv

#endif // TPV_SVC_KEYSPACE_HH
