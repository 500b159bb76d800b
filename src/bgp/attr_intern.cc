#include "bgp/attr_intern.hh"

#include <atomic>
#include <utility>

#include "obs/metrics.hh"
#include "obs/views.hh"

namespace bgpbench::bgp
{

namespace
{

/** Never-zero owner ids; 0 means "not interned" on PathAttributes. */
uint64_t
nextInternerId()
{
    // Atomic: interners are constructed lazily on several threads
    // (one per parallel-simulation worker).
    static std::atomic<uint64_t> next{0};
    return ++next;
}

} // namespace

size_t
attributesHeapBytes(const PathAttributes &attrs)
{
    size_t bytes = sizeof(PathAttributes);
    bytes += attrs.asPath.segments().capacity() *
             sizeof(AsPath::Segment);
    for (const auto &segment : attrs.asPath.segments())
        bytes += segment.asns.capacity() * sizeof(AsNumber);
    bytes += attrs.communities.capacity() * sizeof(uint32_t);
    bytes += attrs.clusterList.capacity() * sizeof(uint32_t);
    return bytes;
}

AttributeInterner::AttributeInterner() : id_(nextInternerId()) {}

AttributeInterner &
AttributeInterner::global()
{
    // One interner per thread: the parallel topology engine runs one
    // speaker shard per worker, and a shared table would need a lock
    // on the hottest allocation path. Canonical sets from different
    // threads carry different owner ids, so sameAttributeValue()
    // falls back to hash-guarded deep comparison across shards —
    // slower, but correct, and cross-shard attribute comparisons are
    // rare (RIB contents stay shard-local).
    static thread_local AttributeInterner interner;
    return interner;
}

PathAttributesPtr
AttributeInterner::intern(PathAttributes attrs)
{
    ++lookups_;
    uint64_t hash = attrs.hash();
    auto &bucket = table_[hash];
    for (auto it = bucket.begin(); it != bucket.end();) {
        if (auto canonical = it->lock()) {
            if (*canonical == attrs) {
                ++hits_;
                bytesDeduplicated_ += attributesHeapBytes(attrs);
                return canonical;
            }
            ++it;
        } else {
            // Lazy reclamation of slots whose set died.
            it = bucket.erase(it);
            --tracked_;
        }
    }

    ++misses_;
    auto canonical =
        std::make_shared<PathAttributes>(std::move(attrs));
    // Moving never propagates intern state (a moved-to object is not
    // the table-held canonical until we say so): re-stamp the hash we
    // already computed and mark this instance as ours.
    canonical->intern_.hash = hash;
    canonical->intern_.owner = id_;
    bucket.emplace_back(canonical);
    ++tracked_;
    maybeSweep();
    return canonical;
}

size_t
AttributeInterner::sweepExpired()
{
    size_t reclaimed = 0;
    for (auto it = table_.begin(); it != table_.end();) {
        auto &bucket = it->second;
        for (auto slot = bucket.begin(); slot != bucket.end();) {
            if (slot->expired()) {
                slot = bucket.erase(slot);
                ++reclaimed;
            } else {
                ++slot;
            }
        }
        if (bucket.empty())
            it = table_.erase(it);
        else
            ++it;
    }
    tracked_ -= reclaimed;
    ++sweeps_;
    return reclaimed;
}

void
AttributeInterner::maybeSweep()
{
    if (tracked_ < sweepThreshold_)
        return;
    sweepExpired();
    // Re-arm so the next sweep happens once the table doubles again;
    // total sweep work stays linear in the number of insertions.
    sweepThreshold_ = std::max<size_t>(1024, tracked_ * 2);
}

void
AttributeInterner::clear()
{
    for (auto &[hash, bucket] : table_) {
        for (auto &slot : bucket) {
            // Unmark survivors; their cached hash stays valid (the
            // value is unchanged), only the canonical claim is gone.
            if (auto canonical = slot.lock())
                canonical->intern_.owner = 0;
        }
    }
    table_.clear();
    tracked_ = 0;
    sweepThreshold_ = 1024;
}

AttributeInterner::Stats
AttributeInterner::stats() const
{
    Stats s;
    s.lookups = lookups_;
    s.hits = hits_;
    s.misses = misses_;
    s.sweeps = sweeps_;
    s.bytesDeduplicated = bytesDeduplicated_;
    s.trackedSets = tracked_;
    for (const auto &[hash, bucket] : table_) {
        for (const auto &slot : bucket) {
            if (!slot.expired())
                ++s.liveSets;
        }
    }
    return s;
}

void
AttributeInterner::publishStats(obs::MetricRegistry &registry) const
{
    Stats s = stats();
    registry.counter(obs::metric::internLookups).add(s.lookups);
    registry.counter(obs::metric::internHits).add(s.hits);
    registry.counter(obs::metric::internMisses).add(s.misses);
    registry.counter("intern.sweeps").add(s.sweeps);
    registry.counter(obs::metric::internBytesDeduplicated)
        .add(s.bytesDeduplicated);
    // Census values are levels, not event counts: gauges, merged by
    // max, so absorbing per-thread publishes keeps the largest table.
    registry.gauge(obs::metric::internLiveSets)
        .noteMax(double(s.liveSets));
    registry.gauge("intern.tracked_sets")
        .noteMax(double(s.trackedSets));
}

void
AttributeInterner::resetStats()
{
    lookups_ = 0;
    hits_ = 0;
    misses_ = 0;
    sweeps_ = 0;
    bytesDeduplicated_ = 0;
}

} // namespace bgpbench::bgp
