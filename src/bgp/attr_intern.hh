/**
 * @file
 * Hash-consing of path attribute sets.
 *
 * Millions of prefixes share a few thousand distinct attribute sets
 * (the insight production stacks exploit: Quagga's attr_intern, BIRD's
 * rta cache). The AttributeInterner canonicalises every PathAttributes
 * built through makeAttributes() to a single shared instance keyed by
 * its content hash, so attribute equality anywhere downstream — the
 * three RIBs, outbound update grouping, export memoisation — becomes a
 * pointer comparison instead of a deep structural compare.
 *
 * The interner holds only weak references: an attribute set whose last
 * route dies is freed normally and its table slot is reclaimed lazily
 * (on bucket collisions) and in bulk by amortised sweeps, so session
 * resets cannot grow the table without bound.
 *
 * The default interner is per-thread (one per parallel-simulation
 * worker), so no locking is performed anywhere on the intern path.
 * Canonicals carry their owner's id; comparisons across interners
 * (threads, or separate test instances) fall back to hash-guarded
 * deep comparison and remain correct.
 */

#ifndef BGPBENCH_BGP_ATTR_INTERN_HH
#define BGPBENCH_BGP_ATTR_INTERN_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bgp/path_attributes.hh"

namespace bgpbench::obs
{
class MetricRegistry;
} // namespace bgpbench::obs

namespace bgpbench::bgp
{

/**
 * Weak-reference hash-consing table for PathAttributes.
 *
 * All attribute construction funnels through makeAttributes(), which
 * consults the global() instance; separate instances exist only for
 * tests.
 */
class AttributeInterner
{
  public:
    /** Lifetime counters plus a table snapshot. */
    struct Stats
    {
        /** intern() calls. */
        uint64_t lookups = 0;
        /** Lookups that returned an existing canonical instance. */
        uint64_t hits = 0;
        /** Lookups that created a new canonical instance. */
        uint64_t misses = 0;
        /** Bulk sweeps of expired table slots. */
        uint64_t sweeps = 0;
        /**
         * Approximate heap bytes the hits avoided allocating (the
         * duplicate PathAttributes block plus its vector payloads).
         */
        uint64_t bytesDeduplicated = 0;
        /** Canonical sets currently alive (referenced by a route). */
        size_t liveSets = 0;
        /** Table slots, including not-yet-swept expired ones. */
        size_t trackedSets = 0;

        double
        hitRatio() const
        {
            return lookups ? double(hits) / double(lookups) : 0.0;
        }
    };

    AttributeInterner();

    /**
     * Canonicalise @p attrs: return the shared instance equal to it,
     * creating one if none is alive.
     */
    PathAttributesPtr intern(PathAttributes attrs);

    /**
     * Drop expired table slots.
     * @return Number of slots reclaimed.
     */
    size_t sweepExpired();

    /**
     * Forget every tracked set. Surviving instances are unmarked as
     * interned first so stale pointer-identity shortcuts cannot
     * misfire against sets interned later. Test use only.
     */
    void clear();

    /** Counters plus a fresh live/tracked census of the table. */
    Stats stats() const;

    /**
     * Publish stats() under the canonical "intern.*" metric names
     * (obs::metric). Counters accumulate, so publish once per report
     * into a given registry.
     */
    void publishStats(obs::MetricRegistry &registry) const;

    /** Zero the lifetime counters (table contents are kept). */
    void resetStats();

    /**
     * The calling thread's interner, used by makeAttributes().
     * Thread-local so parallel simulation shards never contend;
     * single-threaded programs see exactly one instance.
     */
    static AttributeInterner &global();

  private:
    void maybeSweep();

    /** Content hash -> weak refs to canonical instances. */
    std::unordered_map<uint64_t,
                       std::vector<std::weak_ptr<const PathAttributes>>>
        table_;
    /** Total table slots, kept incrementally. */
    size_t tracked_ = 0;
    /**
     * Unique, never-zero id stamped on this interner's canonicals.
     * sameAttributeValue() only trusts the distinct-canonicals-are-
     * unequal invariant when both owners match, so canonicals from
     * separate interner instances (tests) compare by value.
     */
    uint64_t id_ = 0;
    /** Sweep when tracked_ reaches this; doubles with live size. */
    size_t sweepThreshold_ = 1024;

    uint64_t lookups_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t sweeps_ = 0;
    uint64_t bytesDeduplicated_ = 0;
};

/** Approximate heap footprint of one attribute set (for dedup stats). */
size_t attributesHeapBytes(const PathAttributes &attrs);

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_ATTR_INTERN_HH
