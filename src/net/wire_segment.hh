/**
 * @file
 * Shared immutable wire segments and the pooled allocator behind them.
 *
 * A WireSegment is one encoded protocol message (or TCP segment) that
 * every hop of the message path — per-peer transmit queues, simulated
 * links, cross-shard mailboxes, receive-side framing — references
 * instead of copying. Segments are immutable after sealing, so one
 * encoding of an UPDATE fanned out to K peers can ride every peer
 * queue and every link concurrently, including across the parallel
 * engine's shard threads (the refcount is the shared_ptr's atomic).
 *
 * The BufferPool recycles the underlying byte buffers in power-of-two
 * size classes: sealing returns the segment, destroying the last
 * reference returns the buffer to the pool of the *releasing* thread.
 * Pools are thread-local (like the AttributeInterner), so the
 * allocation fast path never locks; buffers migrate between threads
 * only by riding inside segments, which is exactly the cross-shard
 * mailbox case.
 */

#ifndef BGPBENCH_NET_WIRE_SEGMENT_HH
#define BGPBENCH_NET_WIRE_SEGMENT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/byte_io.hh"

namespace bgpbench::obs
{
class MetricRegistry;
} // namespace bgpbench::obs

namespace bgpbench::net
{

class BufferPool;

/**
 * One immutable, refcounted, pooled byte segment. Created only by
 * BufferPool::seal()/wrap(); destruction returns the buffer to the
 * releasing thread's pool.
 */
class WireSegment
{
  public:
    ~WireSegment();

    WireSegment(const WireSegment &) = delete;
    WireSegment &operator=(const WireSegment &) = delete;

    std::span<const uint8_t> bytes() const { return buf_; }
    const uint8_t *data() const { return buf_.data(); }
    size_t size() const { return buf_.size(); }

    /** Content equality (bytes, not identity). */
    friend bool
    operator==(const WireSegment &a, const WireSegment &b)
    {
        return a.buf_ == b.buf_;
    }

  private:
    friend class BufferPool;
    /** Construction key so make_shared stays pool-only. */
    struct Key
    {
    };

  public:
    WireSegment(Key, std::vector<uint8_t> buf) : buf_(std::move(buf)) {}

  private:
    std::vector<uint8_t> buf_;
};

using WireSegmentPtr = std::shared_ptr<const WireSegment>;

/**
 * Thread-local recycling allocator for wire segment buffers.
 *
 * All segment construction funnels through writer()/seal() (encoders)
 * or wrap() (adapters around already-owned byte vectors); separate
 * instances exist only for tests.
 */
class BufferPool
{
  public:
    /**
     * Lifetime counters plus a census of the free lists. The lifetime
     * counters are process-wide (shard threads encode, the main thread
     * reports); only pooledBuffers/pooledBytes are per-pool.
     */
    struct Stats
    {
        /** Buffer acquisitions (writer() + wrap() + seal() fresh). */
        uint64_t acquires = 0;
        /** Acquisitions served from a free list. */
        uint64_t hits = 0;
        /** Acquisitions that had to allocate. */
        uint64_t misses = 0;
        /**
         * Transmissions that reused an already-encoded segment
         * (encode-once fan-out) instead of encoding again.
         */
        uint64_t sharedEncodes = 0;
        /** Wire bytes those reuses avoided re-encoding/copying. */
        uint64_t bytesDeduplicated = 0;
        /** Segments alive right now (process-wide). */
        uint64_t outstanding = 0;
        /** High-water mark of outstanding (process-wide). */
        uint64_t peakOutstanding = 0;
        /** Buffers parked in this pool's free lists. */
        uint64_t pooledBuffers = 0;
        /** Capacity bytes parked in this pool's free lists. */
        uint64_t pooledBytes = 0;

        double
        hitRatio() const
        {
            return acquires ? double(hits) / double(acquires) : 0.0;
        }
    };

    BufferPool() = default;
    ~BufferPool();

    BufferPool(const BufferPool &) = delete;
    BufferPool &operator=(const BufferPool &) = delete;

    /**
     * A ByteWriter whose backing buffer has at least @p reserve bytes
     * of capacity, recycled from the pool when a matching size class
     * has one.
     */
    ByteWriter writer(size_t reserve);

    /** Seal the writer's bytes into an immutable shared segment. */
    WireSegmentPtr seal(ByteWriter &&writer);

    /** Wrap an already-built byte vector (moves, no copy). */
    WireSegmentPtr wrap(std::vector<uint8_t> bytes);

    /**
     * Record that @p bytes wire bytes were delivered by sharing an
     * existing segment instead of re-encoding (fan-out dedup stats).
     */
    void noteShared(size_t bytes);

    /** Counters plus a census of the free lists. */
    Stats stats() const;

    /**
     * Publish stats() under the canonical "wire.*" metric names
     * (obs::metric). Counters accumulate, so publish once per report
     * into a given registry.
     */
    void publishStats(obs::MetricRegistry &registry) const;

    /** Zero the process-wide counters (free lists are kept). */
    void resetStats();

    /** Drop every pooled buffer (test hygiene). */
    void trim();

    /**
     * The calling thread's pool, used by the codec layer. Thread-local
     * so parallel simulation shards never contend.
     */
    static BufferPool &global();

  private:
    friend class WireSegment;

    /** Power-of-two size classes from minClassBytes to maxClassBytes. */
    static constexpr size_t minClassBytes = 64;
    static constexpr size_t maxClassBytes = 4096;
    static constexpr size_t classCount = 7; // 64..4096
    /** Free-list depth per class; beyond it buffers are freed. */
    static constexpr size_t maxPooledPerClass = 64;

    /** Index of the smallest class holding @p bytes (or classCount). */
    static size_t classIndex(size_t bytes);

    /** Return a dying segment's buffer to this pool. */
    void recycle(std::vector<uint8_t> buf);

    /** Pop a buffer with capacity >= @p reserve, or a fresh one. */
    std::vector<uint8_t> acquire(size_t reserve);

    std::vector<std::vector<uint8_t>> free_[classCount];
};

} // namespace bgpbench::net

#endif // BGPBENCH_NET_WIRE_SEGMENT_HH
