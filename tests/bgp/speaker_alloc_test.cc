/**
 * @file
 * Allocation budget of the speaker's UPDATE path.
 *
 * This binary replaces the global operator new with a counting one, so
 * it stands alone (add_bgpbench_test) rather than joining bgp_test. A
 * warmed-up speaker with four eBGP feeds and one downstream peer takes
 * pre-decoded UPDATEs through handleMessage(); every NLRI is fresh and
 * becomes best, so each one runs the whole path: Adj-RIB-In write,
 * decision, Loc-RIB install, FIB event, four Adj-RIB-Out writes and the
 * per-peer UPDATE packing, encoding and fan-out. The heap work per
 * UPDATE (one NLRI vector per outbound message, one shared segment)
 * must not grow with the number of NLRI it carries.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "bgp/speaker.hh"

namespace
{

std::atomic<uint64_t> allocationCount{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

constexpr PeerId downstreamPeer = 4;
constexpr size_t feedPeers = 4;

/** Drops every event: the budget covers the speaker alone. */
struct NullSink : public SpeakerEvents
{
    void
    onTransmit(PeerId, MessageType, net::WireSegmentPtr, size_t) override
    {}
};

class AllocFixture
{
  public:
    AllocFixture()
    {
        SpeakerConfig config;
        config.localAs = 65000;
        config.routerId = 1;
        config.localAddress = net::Ipv4Address(10, 0, 0, 1);
        config.holdTimeSec = 0;
        speaker = std::make_unique<BgpSpeaker>(config, &sink);
        for (PeerId id = 0; id <= downstreamPeer; ++id) {
            PeerConfig peer;
            peer.id = id;
            peer.asn = id == downstreamPeer ? 65100 : AsNumber(64601 + id);
            speaker->addPeer(peer);
        }
        speaker->reserveRoutes(4096);
        for (PeerId id = 0; id <= downstreamPeer; ++id) {
            speaker->startPeer(id, 0);
            speaker->tcpEstablished(id, 0);
            OpenMessage open;
            open.myAs = uint16_t(id == downstreamPeer ? 65100 : 64601 + id);
            open.holdTimeSec = 0;
            open.bgpIdentifier = 100 + id;
            speaker->handleMessage(id, open, 0);
            speaker->handleMessage(id, KeepaliveMessage{}, 0);
        }

        PathAttributes a;
        a.asPath = AsPath::sequence({64601, 3356, 1299});
        a.nextHop = net::Ipv4Address(192, 0, 2, 1);
        attrs = makeAttributes(std::move(a));
    }

    /** An UPDATE from feed 0 announcing @p count fresh /24s. */
    Message
    freshUpdate(size_t count)
    {
        UpdateMessage update;
        update.attributes = attrs;
        for (size_t i = 0; i < count; ++i, ++nextPrefix) {
            update.nlri.emplace_back(
                net::Ipv4Address(20, uint8_t(nextPrefix >> 8),
                                 uint8_t(nextPrefix), 0),
                24);
        }
        return update;
    }

    /** Heap allocations made while the speaker handles @p msg. */
    uint64_t
    allocationsFor(const Message &msg)
    {
        uint64_t before = allocationCount.load();
        speaker->handleMessage(0, msg, 0);
        return allocationCount.load() - before;
    }

    NullSink sink;
    std::unique_ptr<BgpSpeaker> speaker;
    PathAttributesPtr attrs;
    uint32_t nextPrefix = 0;
};

} // namespace

TEST(SpeakerAlloc, UpdateAllocationsDoNotGrowWithNlri)
{
    AllocFixture f;
    // Warm-up: grow the reusable storage (decision scratch, per-peer
    // builders, flush scratch) and fill the eBGP export memos.
    for (int round = 0; round < 2; ++round)
        f.speaker->handleMessage(0, f.freshUpdate(256), 0);

    Message one = f.freshUpdate(1);
    Message many = f.freshUpdate(256);
    uint64_t for_one = f.allocationsFor(one);
    uint64_t for_many = f.allocationsFor(many);

    // Every NLRI became best and went to the three other feeds and
    // the downstream peer.
    EXPECT_EQ(f.speaker->locRib().size(), 2 * 256 + 1 + 256u);
    EXPECT_EQ(f.speaker->adjRibOut(downstreamPeer).size(),
              f.speaker->locRib().size());
    for (PeerId feed = 1; feed < feedPeers; ++feed)
        EXPECT_EQ(f.speaker->adjRibOut(feed).size(),
                  f.speaker->locRib().size());
    EXPECT_EQ(f.speaker->adjRibOut(0).size(), 0u);

    // The per-UPDATE cost is the same constant for 1 and 256 NLRI: no
    // term proportional to the NLRI count.
    EXPECT_LE(for_many, for_one + 2)
        << "1 NLRI: " << for_one << " allocations, 256 NLRI: "
        << for_many;
    // And that constant is small: one outbound NLRI vector for each of
    // the four receiving peers plus one segment they all share (one
    // allocation of slack).
    EXPECT_LE(for_one, feedPeers + 2) << for_one;
}
