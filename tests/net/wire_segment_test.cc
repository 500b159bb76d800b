/**
 * @file
 * Tests for the shared wire-segment abstraction and its buffer pool:
 * immutability-by-sharing semantics, size-classed recycling, and the
 * process-wide liveness census.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "net/wire_segment.hh"

using namespace bgpbench::net;

namespace
{

WireSegmentPtr
sealBytes(BufferPool &pool, std::vector<uint8_t> bytes)
{
    ByteWriter w = pool.writer(bytes.size());
    for (uint8_t b : bytes)
        w.writeU8(b);
    return pool.seal(std::move(w));
}

} // namespace

TEST(WireSegment, SealPreservesBytes)
{
    BufferPool pool;
    auto seg = sealBytes(pool, {1, 2, 3, 4, 5});
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 5u);
    EXPECT_EQ(seg->bytes()[0], 1);
    EXPECT_EQ(seg->bytes()[4], 5);
}

TEST(WireSegment, WrapMovesVector)
{
    BufferPool pool;
    std::vector<uint8_t> bytes(300, 0xab);
    const uint8_t *data = bytes.data();
    auto seg = pool.wrap(std::move(bytes));
    EXPECT_EQ(seg->data(), data); // moved, not copied
    EXPECT_EQ(seg->size(), 300u);
}

TEST(WireSegment, ContentEqualityIsBytewise)
{
    BufferPool pool;
    auto a = sealBytes(pool, {9, 8, 7});
    auto b = sealBytes(pool, {9, 8, 7});
    auto c = sealBytes(pool, {9, 8, 6});
    EXPECT_NE(a, b);       // distinct identities
    EXPECT_TRUE(*a == *b); // same content
    EXPECT_FALSE(*a == *c);
}

TEST(WireSegment, SharedSegmentSurvivesManyReleases)
{
    BufferPool pool;
    auto seg = sealBytes(pool, {1, 2, 3});
    std::vector<WireSegmentPtr> holders(100, seg);
    holders.clear();
    EXPECT_EQ(seg->size(), 3u); // sole owner again, bytes intact
}

TEST(BufferPool, RecyclesThroughGlobalPool)
{
    auto &pool = BufferPool::global();
    pool.trim();
    pool.resetStats();

    // Seal and release through the global pool: the dying segment's
    // buffer must come back for the next acquisition.
    {
        auto seg = sealBytes(pool, std::vector<uint8_t>(100, 0x55));
    }
    auto mid = pool.stats();
    EXPECT_GE(mid.pooledBuffers, 1u);

    // A buffer of capacity ~100 parks in the 64-byte floor class, so
    // it serves requests of up to 64 bytes (the capacity guarantee is
    // per class, not per buffer).
    auto seg2 = sealBytes(pool, std::vector<uint8_t>(60, 0x66));
    auto after = pool.stats();
    EXPECT_GE(after.hits, 1u);
    EXPECT_EQ(seg2->size(), 60u);
}

TEST(BufferPool, OversizedBuffersAreNotPooled)
{
    auto &pool = BufferPool::global();
    pool.trim();

    {
        auto seg =
            sealBytes(pool, std::vector<uint8_t>(16 * 1024, 0x11));
    }
    // 16 KiB exceeds the largest (4096-byte) size class.
    EXPECT_EQ(pool.stats().pooledBuffers, 0u);
}

TEST(BufferPool, OutstandingCensusTracksLiveSegments)
{
    auto &pool = BufferPool::global();
    pool.resetStats();
    uint64_t base = pool.stats().outstanding;

    auto a = sealBytes(pool, {1});
    auto b = sealBytes(pool, {2});
    EXPECT_EQ(pool.stats().outstanding, base + 2);
    EXPECT_GE(pool.stats().peakOutstanding, base + 2);

    a.reset();
    b.reset();
    EXPECT_EQ(pool.stats().outstanding, base);
    // The high-water mark survives the releases.
    EXPECT_GE(pool.stats().peakOutstanding, base + 2);
}

TEST(BufferPool, NoteSharedAccumulatesDedup)
{
    auto &pool = BufferPool::global();
    pool.resetStats();
    pool.noteShared(100);
    pool.noteShared(23);
    auto s = pool.stats();
    EXPECT_EQ(s.sharedEncodes, 2u);
    EXPECT_EQ(s.bytesDeduplicated, 123u);
}

TEST(BufferPool, SegmentsMayDieOnAnotherThread)
{
    // The cross-shard mailbox case: a segment sealed here is released
    // by a different thread. The census must stay balanced and the
    // buffer must not be recycled into a dead pool.
    auto &pool = BufferPool::global();
    uint64_t base = pool.stats().outstanding;

    auto seg = sealBytes(pool, std::vector<uint8_t>(200, 0x33));
    std::thread reaper(
        [moved = std::move(seg)]() mutable { moved.reset(); });
    reaper.join();

    EXPECT_EQ(pool.stats().outstanding, base);
}

TEST(BufferPool, ManyThreadsSealAndReleaseConcurrently)
{
    auto &pool = BufferPool::global();
    uint64_t base = pool.stats().outstanding;

    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([]() {
            auto &mine = BufferPool::global();
            for (int i = 0; i < 1000; ++i) {
                auto seg = sealBytes(
                    mine, std::vector<uint8_t>(64 + i % 512, 0x44));
                auto copy = seg; // shared refcount traffic
                copy.reset();
                seg.reset();
            }
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(pool.stats().outstanding, base);
}
