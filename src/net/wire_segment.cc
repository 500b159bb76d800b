#include "net/wire_segment.hh"

#include <atomic>

#include "obs/metrics.hh"
#include "obs/views.hh"

namespace bgpbench::net
{

namespace
{

/**
 * Segments allocated on one shard thread may drop their last reference
 * on another, so the liveness census is process-wide. Relaxed ordering
 * is enough: the counters feed reports, not synchronisation.
 */
std::atomic<uint64_t> liveSegments{0};
std::atomic<uint64_t> peakLiveSegments{0};

/**
 * Lifetime counters are process-wide too: in a parallel topology run
 * the encoding happens on shard threads, and a report printed from the
 * main thread must still see it.
 */
std::atomic<uint64_t> totalAcquires{0};
std::atomic<uint64_t> totalHits{0};
std::atomic<uint64_t> totalMisses{0};
std::atomic<uint64_t> totalSharedEncodes{0};
std::atomic<uint64_t> totalBytesDeduplicated{0};

/** The releasing thread's pool; null before global() / after exit. */
thread_local BufferPool *tlsPool = nullptr;

void
noteSegmentBorn()
{
    uint64_t live =
        liveSegments.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t peak = peakLiveSegments.load(std::memory_order_relaxed);
    while (live > peak &&
           !peakLiveSegments.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
}

} // namespace

WireSegment::~WireSegment()
{
    liveSegments.fetch_sub(1, std::memory_order_relaxed);
    if (tlsPool)
        tlsPool->recycle(std::move(buf_));
}

BufferPool::~BufferPool()
{
    if (tlsPool == this)
        tlsPool = nullptr;
}

BufferPool &
BufferPool::global()
{
    thread_local BufferPool pool;
    // Segments released on this thread recycle into its global pool,
    // wherever they were sealed. The pointer is cleared by the pool's
    // destructor so segments outliving thread-local teardown fall back
    // to plain deallocation.
    if (!tlsPool)
        tlsPool = &pool;
    return pool;
}

size_t
BufferPool::classIndex(size_t bytes)
{
    size_t cls = minClassBytes;
    for (size_t i = 0; i < classCount; ++i, cls <<= 1) {
        if (bytes <= cls)
            return i;
    }
    return classCount;
}

std::vector<uint8_t>
BufferPool::acquire(size_t reserve)
{
    totalAcquires.fetch_add(1, std::memory_order_relaxed);
    // Any buffer parked in class i has capacity >= 64<<i, so the first
    // non-empty class at or above the request fits it.
    for (size_t i = classIndex(reserve); i < classCount; ++i) {
        if (!free_[i].empty()) {
            totalHits.fetch_add(1, std::memory_order_relaxed);
            std::vector<uint8_t> buf = std::move(free_[i].back());
            free_[i].pop_back();
            buf.clear();
            return buf;
        }
    }
    totalMisses.fetch_add(1, std::memory_order_relaxed);
    std::vector<uint8_t> buf;
    // Round fresh allocations up to the class size so the capacity
    // recycles into the exact class a same-sized request scans first;
    // an odd capacity would park in the floor class below and never
    // serve its own size again.
    size_t cls = classIndex(reserve);
    buf.reserve(cls < classCount ? (minClassBytes << cls) : reserve);
    return buf;
}

void
BufferPool::recycle(std::vector<uint8_t> buf)
{
    size_t capacity = buf.capacity();
    if (capacity < minClassBytes || capacity > maxClassBytes)
        return;
    // Park by the largest class the capacity covers, so acquire()'s
    // "class i holds >= 64<<i bytes" invariant stays true.
    size_t i = classIndex(capacity);
    if (i >= classCount)
        return;
    if ((minClassBytes << i) > capacity)
        --i; // capacity sits between classes: park in the floor class
    if (free_[i].size() >= maxPooledPerClass)
        return;
    free_[i].push_back(std::move(buf));
}

void
BufferPool::noteShared(size_t bytes)
{
    totalSharedEncodes.fetch_add(1, std::memory_order_relaxed);
    totalBytesDeduplicated.fetch_add(bytes,
                                     std::memory_order_relaxed);
}

ByteWriter
BufferPool::writer(size_t reserve)
{
    return ByteWriter(acquire(reserve), reserve);
}

WireSegmentPtr
BufferPool::seal(ByteWriter &&writer)
{
    noteSegmentBorn();
    return std::make_shared<const WireSegment>(WireSegment::Key{},
                                               writer.take());
}

WireSegmentPtr
BufferPool::wrap(std::vector<uint8_t> bytes)
{
    noteSegmentBorn();
    return std::make_shared<const WireSegment>(WireSegment::Key{},
                                               std::move(bytes));
}

BufferPool::Stats
BufferPool::stats() const
{
    Stats s;
    s.acquires = totalAcquires.load(std::memory_order_relaxed);
    s.hits = totalHits.load(std::memory_order_relaxed);
    s.misses = totalMisses.load(std::memory_order_relaxed);
    s.sharedEncodes =
        totalSharedEncodes.load(std::memory_order_relaxed);
    s.bytesDeduplicated =
        totalBytesDeduplicated.load(std::memory_order_relaxed);
    s.outstanding = liveSegments.load(std::memory_order_relaxed);
    s.peakOutstanding =
        peakLiveSegments.load(std::memory_order_relaxed);
    for (const auto &cls : free_) {
        s.pooledBuffers += cls.size();
        for (const auto &buf : cls)
            s.pooledBytes += buf.capacity();
    }
    return s;
}

void
BufferPool::publishStats(obs::MetricRegistry &registry) const
{
    Stats s = stats();
    registry.counter(obs::metric::wireAcquires).add(s.acquires);
    registry.counter(obs::metric::wirePoolHits).add(s.hits);
    registry.counter(obs::metric::wirePoolMisses).add(s.misses);
    registry.counter(obs::metric::wireSharedEncodes)
        .add(s.sharedEncodes);
    registry.counter(obs::metric::wireBytesDeduplicated)
        .add(s.bytesDeduplicated);
    // Liveness census values are levels: gauges, merged by max.
    registry.gauge(obs::metric::wireOutstandingSegments)
        .noteMax(double(s.outstanding));
    registry.gauge(obs::metric::wirePeakOutstandingSegments)
        .noteMax(double(s.peakOutstanding));
}

void
BufferPool::resetStats()
{
    totalAcquires.store(0, std::memory_order_relaxed);
    totalHits.store(0, std::memory_order_relaxed);
    totalMisses.store(0, std::memory_order_relaxed);
    totalSharedEncodes.store(0, std::memory_order_relaxed);
    totalBytesDeduplicated.store(0, std::memory_order_relaxed);
    peakLiveSegments.store(liveSegments.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
}

void
BufferPool::trim()
{
    for (auto &cls : free_)
        cls.clear();
}

} // namespace bgpbench::net
