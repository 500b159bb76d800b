/**
 * @file
 * Integration tests for BgpSpeaker: two (or three) real speakers
 * exchanging wire-format messages through an in-memory transport.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "bgp/speaker.hh"
#include "net/logging.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

net::Prefix
prefix(uint32_t i)
{
    return net::Prefix(
        net::Ipv4Address(10, uint8_t(i >> 8), uint8_t(i), 0), 24);
}

PathAttributesPtr
attrs(std::vector<AsNumber> path,
      net::Ipv4Address next_hop = net::Ipv4Address(10, 0, 0, 9))
{
    PathAttributes a;
    a.asPath = AsPath::sequence(std::move(path));
    a.nextHop = next_hop;
    return makeAttributes(std::move(a));
}

/**
 * In-memory mesh transport: every speaker's transmissions are queued
 * and delivered by pump(), avoiding unbounded recursion. Also records
 * FIB updates per speaker.
 */
class Mesh
{
  public:
    struct Node;

    struct Events : public SpeakerEvents
    {
        Mesh *mesh = nullptr;
        size_t self = 0;

        void
        onTransmit(PeerId to, MessageType, net::WireSegmentPtr wire,
                   size_t) override
        {
            mesh->enqueue(self, to, std::move(wire));
        }

        void
        onFibUpdate(const FibUpdate &update) override
        {
            mesh->nodes[self]->fibLog.push_back(update);
        }
    };

    struct Node
    {
        Events events;
        std::unique_ptr<BgpSpeaker> speaker;
        std::vector<FibUpdate> fibLog;
        /** peer id (local) -> {remote node, remote's peer id} */
        std::map<PeerId, std::pair<size_t, PeerId>> wiring;
    };

    size_t
    addSpeaker(AsNumber asn, RouterId id, net::Ipv4Address addr,
               PackingOptions packing = {})
    {
        auto node = std::make_unique<Node>();
        node->events.mesh = this;
        node->events.self = nodes.size();
        SpeakerConfig config;
        config.localAs = asn;
        config.routerId = id;
        config.localAddress = addr;
        config.packing = packing;
        node->speaker = std::make_unique<BgpSpeaker>(config,
                                                     &node->events);
        nodes.push_back(std::move(node));
        return nodes.size() - 1;
    }

    /** Wire node a's peer pa to node b's peer pb and establish. */
    void
    connect(size_t a, PeerId pa, size_t b, PeerId pb,
            Policy a_import = {}, Policy a_export = {})
    {
        PeerConfig ca;
        ca.id = pa;
        ca.asn = nodes[b]->speaker->config().localAs;
        ca.importPolicy = std::move(a_import);
        ca.exportPolicy = std::move(a_export);
        nodes[a]->speaker->addPeer(ca);

        PeerConfig cb;
        cb.id = pb;
        cb.asn = nodes[a]->speaker->config().localAs;
        nodes[b]->speaker->addPeer(cb);

        nodes[a]->wiring[pa] = {b, pb};
        nodes[b]->wiring[pb] = {a, pa};

        nodes[a]->speaker->startPeer(pa, now);
        nodes[b]->speaker->startPeer(pb, now);
        nodes[a]->speaker->tcpEstablished(pa, now);
        nodes[b]->speaker->tcpEstablished(pb, now);
        pump();
    }

    void
    enqueue(size_t from, PeerId via, net::WireSegmentPtr wire)
    {
        queue.push_back({from, via, std::move(wire)});
    }

    /** Deliver queued segments until the network is quiet. */
    void
    pump()
    {
        while (!queue.empty()) {
            auto item = std::move(queue.front());
            queue.pop_front();
            auto [to, to_peer] = nodes[item.from]->wiring.at(item.via);
            nodes[to]->speaker->receiveSegment(to_peer,
                                               std::move(item.wire),
                                               now);
        }
    }

    BgpSpeaker &speakerAt(size_t i) { return *nodes[i]->speaker; }

    std::vector<std::unique_ptr<Node>> nodes;
    struct Segment
    {
        size_t from;
        PeerId via;
        net::WireSegmentPtr wire;
    };
    std::deque<Segment> queue;
    uint64_t now = 0;
};

} // namespace

TEST(Speaker, HandshakeEstablishesBothSides)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    mesh.connect(a, 0, b, 0);

    EXPECT_EQ(mesh.speakerAt(a).sessionState(0),
              SessionState::Established);
    EXPECT_EQ(mesh.speakerAt(b).sessionState(0),
              SessionState::Established);
}

TEST(Speaker, RoutePropagatesWithPrependAndNextHopSelf)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    mesh.connect(a, 0, b, 0);

    mesh.speakerAt(a).originate(prefix(1), attrs({}), 0);
    mesh.pump();

    const auto *entry = mesh.speakerAt(b).locRib().find(prefix(1));
    ASSERT_NE(entry, nullptr);
    // The path b sees is [65001]; next hop is a's address.
    EXPECT_EQ(entry->best.attributes->asPath.toString(), "65001");
    EXPECT_EQ(entry->best.attributes->nextHop,
              net::Ipv4Address(10, 0, 0, 1));

    // b's FIB was told to install the route.
    ASSERT_EQ(mesh.nodes[b]->fibLog.size(), 1u);
    EXPECT_EQ(mesh.nodes[b]->fibLog[0].prefix, prefix(1));
    EXPECT_FALSE(mesh.nodes[b]->fibLog[0].isWithdraw());
}

TEST(Speaker, TransitPropagationThroughMiddleAs)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    size_t c = mesh.addSpeaker(65003, 3, net::Ipv4Address(10, 0, 0, 3));
    mesh.connect(a, 0, b, 0);
    mesh.connect(b, 1, c, 0);

    mesh.speakerAt(a).originate(prefix(7), attrs({}), 0);
    mesh.pump();

    const auto *entry = mesh.speakerAt(c).locRib().find(prefix(7));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->best.attributes->asPath.toString(),
              "65002 65001");
    EXPECT_EQ(entry->best.attributes->nextHop,
              net::Ipv4Address(10, 0, 0, 2));
}

TEST(Speaker, WithdrawalPropagates)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    mesh.connect(a, 0, b, 0);

    mesh.speakerAt(a).originate(prefix(1), attrs({}), 0);
    mesh.pump();
    ASSERT_NE(mesh.speakerAt(b).locRib().find(prefix(1)), nullptr);

    mesh.speakerAt(a).withdrawLocal(prefix(1), 0);
    mesh.pump();
    EXPECT_EQ(mesh.speakerAt(b).locRib().find(prefix(1)), nullptr);
    ASSERT_EQ(mesh.nodes[b]->fibLog.size(), 2u);
    EXPECT_TRUE(mesh.nodes[b]->fibLog[1].isWithdraw());
}

TEST(Speaker, ShorterPathWinsAcrossPeers)
{
    // b hears prefix from a (path length 1) and from c via a longer
    // configured path; it must pick a's.
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    size_t c = mesh.addSpeaker(65003, 3, net::Ipv4Address(10, 0, 0, 3));
    mesh.connect(a, 0, b, 0);
    mesh.connect(c, 0, b, 1);

    mesh.speakerAt(c).originate(prefix(5), attrs({64000, 64001}), 0);
    mesh.pump();
    {
        const auto *entry = mesh.speakerAt(b).locRib().find(prefix(5));
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->best.peer, PeerId(1)); // from c
    }

    mesh.speakerAt(a).originate(prefix(5), attrs({}), 0);
    mesh.pump();
    {
        const auto *entry = mesh.speakerAt(b).locRib().find(prefix(5));
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->best.peer, PeerId(0)); // a's shorter path
        EXPECT_EQ(entry->best.attributes->asPath.pathLength(), 1);
    }
}

TEST(Speaker, LongerPathDoesNotDisturbBest)
{
    // The Scenario 5/6 situation: a second peer announces the same
    // prefix with a longer path; Loc-RIB and FIB must not change.
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    size_t c = mesh.addSpeaker(65003, 3, net::Ipv4Address(10, 0, 0, 3));
    mesh.connect(a, 0, b, 0);
    mesh.connect(c, 0, b, 1);

    mesh.speakerAt(a).originate(prefix(5), attrs({}), 0);
    mesh.pump();
    size_t fib_before = mesh.nodes[b]->fibLog.size();
    auto decisions_before =
        mesh.speakerAt(b).counters().decisionRuns;

    mesh.speakerAt(c).originate(prefix(5), attrs({64000, 64001}), 0);
    mesh.pump();

    // Decision ran again but produced no FIB change.
    EXPECT_GT(mesh.speakerAt(b).counters().decisionRuns,
              decisions_before);
    EXPECT_EQ(mesh.nodes[b]->fibLog.size(), fib_before);
    EXPECT_EQ(mesh.speakerAt(b).locRib().find(prefix(5))->best.peer,
              PeerId(0));
}

TEST(Speaker, LoopingPathIgnored)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    mesh.connect(a, 0, b, 0);

    // a originates a route whose path already contains b's AS.
    mesh.speakerAt(a).originate(prefix(3), attrs({65002, 64000}), 0);
    mesh.pump();

    EXPECT_EQ(mesh.speakerAt(b).locRib().find(prefix(3)), nullptr);
    EXPECT_TRUE(mesh.nodes[b]->fibLog.empty());
}

TEST(Speaker, ImportPolicyRejectionLeavesNoRoute)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));

    // b imports nothing under 10/8 from a.
    Policy reject = makeRejectPrefixPolicy(
        net::Prefix::fromString("10.0.0.0/8"));
    mesh.connect(b, 0, a, 0, reject);

    mesh.speakerAt(a).originate(prefix(1), attrs({}), 0);
    mesh.pump();

    EXPECT_EQ(mesh.speakerAt(b).locRib().find(prefix(1)), nullptr);
    // The rejected route is still remembered in the Adj-RIB-In.
    EXPECT_EQ(mesh.speakerAt(b).adjRibIn(0).size(), 1u);
}

TEST(Speaker, FullTableSentToLateJoiner)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    mesh.connect(a, 0, b, 0);

    for (uint32_t i = 0; i < 50; ++i)
        mesh.speakerAt(a).originate(prefix(i), attrs({}), 0);
    mesh.pump();

    // c joins after b already has the table (the Phase 2 situation).
    size_t c = mesh.addSpeaker(65003, 3, net::Ipv4Address(10, 0, 0, 3));
    mesh.connect(b, 1, c, 0);

    EXPECT_EQ(mesh.speakerAt(c).locRib().size(), 50u);
}

TEST(Speaker, SessionLossInvalidatesRoutes)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    size_t c = mesh.addSpeaker(65003, 3, net::Ipv4Address(10, 0, 0, 3));
    mesh.connect(a, 0, b, 0);
    mesh.connect(b, 1, c, 0);

    for (uint32_t i = 0; i < 10; ++i)
        mesh.speakerAt(a).originate(prefix(i), attrs({}), 0);
    mesh.pump();
    ASSERT_EQ(mesh.speakerAt(b).locRib().size(), 10u);
    ASSERT_EQ(mesh.speakerAt(c).locRib().size(), 10u);

    // a's session drops: b flushes a's routes and withdraws from c.
    mesh.speakerAt(b).tcpClosed(0, 0);
    mesh.pump();
    EXPECT_EQ(mesh.speakerAt(b).locRib().size(), 0u);
    EXPECT_EQ(mesh.speakerAt(c).locRib().size(), 0u);
}

TEST(Speaker, StopPeerSendsCease)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    mesh.connect(a, 0, b, 0);

    mesh.speakerAt(a).stopPeer(0, 0);
    mesh.pump();
    EXPECT_EQ(mesh.speakerAt(a).sessionState(0), SessionState::Idle);
    EXPECT_EQ(mesh.speakerAt(b).sessionState(0), SessionState::Idle);
    EXPECT_EQ(mesh.speakerAt(a).counters().notificationsSent, 1u);
}

TEST(Speaker, IbgpRoutesNotReflected)
{
    // a --eBGP-- b --iBGP-- c: b must not re-advertise the
    // iBGP-learned route from c to another iBGP peer, but DOES
    // advertise eBGP-learned routes to c.
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    size_t c = mesh.addSpeaker(65002, 3, net::Ipv4Address(10, 0, 0, 3));
    size_t d = mesh.addSpeaker(65002, 4, net::Ipv4Address(10, 0, 0, 4));
    mesh.connect(a, 0, b, 0); // eBGP
    mesh.connect(b, 1, c, 0); // iBGP
    mesh.connect(c, 1, d, 0); // iBGP

    mesh.speakerAt(a).originate(prefix(9), attrs({}), 0);
    mesh.pump();

    // c hears it over iBGP from b.
    EXPECT_NE(mesh.speakerAt(c).locRib().find(prefix(9)), nullptr);
    // d must NOT hear it from c (no route reflection).
    EXPECT_EQ(mesh.speakerAt(d).locRib().find(prefix(9)), nullptr);
}

TEST(Speaker, CountersTrackTransactions)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    mesh.connect(a, 0, b, 0);

    for (uint32_t i = 0; i < 20; ++i)
        mesh.speakerAt(a).originate(prefix(i), attrs({}), 0);
    mesh.pump();

    const auto &counters = mesh.speakerAt(b).counters();
    EXPECT_EQ(counters.announcementsProcessed, 20u);
    EXPECT_EQ(counters.locRibChanges, 20u);
    EXPECT_EQ(counters.fibChanges, 20u);
    EXPECT_EQ(counters.transactionsProcessed(), 20u);

    mesh.speakerAt(a).withdrawLocal(prefix(0), 0);
    mesh.pump();
    EXPECT_EQ(counters.withdrawalsProcessed, 1u);
}

TEST(Speaker, SmallPackingEmitsOneUpdatePerPrefix)
{
    Mesh mesh;
    PackingOptions small;
    small.maxPrefixesPerUpdate = 1;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1),
                               small);
    size_t b = mesh.addSpeaker(65002, 2, net::Ipv4Address(10, 0, 0, 2));
    mesh.connect(a, 0, b, 0);

    for (uint32_t i = 0; i < 10; ++i)
        mesh.speakerAt(a).originate(prefix(i), attrs({}), 0);
    mesh.pump();

    EXPECT_EQ(mesh.speakerAt(a).counters().updatesSent, 10u);
    EXPECT_EQ(mesh.speakerAt(b).counters().updatesReceived, 10u);
}

TEST(Speaker, RejectsDuplicatePeerConfig)
{
    Mesh mesh;
    size_t a = mesh.addSpeaker(65001, 1, net::Ipv4Address(10, 0, 0, 1));
    PeerConfig c;
    c.id = 0;
    c.asn = 65002;
    mesh.speakerAt(a).addPeer(c);
    EXPECT_THROW(mesh.speakerAt(a).addPeer(c), FatalError);
}

TEST(Speaker, RejectsBadConfig)
{
    SpeakerConfig config;
    config.localAs = 0;
    config.routerId = 1;
    Mesh::Events events;
    EXPECT_THROW(BgpSpeaker(config, &events), FatalError);
    config.localAs = 1;
    config.routerId = 0;
    EXPECT_THROW(BgpSpeaker(config, &events), FatalError);
}

// ---------------------------------------------------------------------
// Slot lifetime: each NLRI's shared-table slot is resolved once, by its
// Adj-RIB-In write or withdraw, and threaded through the decision to
// the Loc-RIB and every Adj-RIB-Out. These cases pin the edges of that
// lifetime through the speaker's observable outputs.
// ---------------------------------------------------------------------

namespace
{

/**
 * One speaker (AS 65000) with feeds A (peer 0, AS 64601) and B (peer
 * 1, AS 64602) and a downstream D (peer 2, AS 65100), driven by
 * pre-decoded messages. Records FIB events.
 */
class SlotHarness : public SpeakerEvents
{
  public:
    static constexpr PeerId feedA = 0;
    static constexpr PeerId feedB = 1;
    static constexpr PeerId downstream = 2;

    explicit SlotHarness(DampingConfig damping = {},
                         Policy importA = {})
    {
        SpeakerConfig config;
        config.localAs = 65000;
        config.routerId = 1;
        config.localAddress = net::Ipv4Address(10, 255, 0, 1);
        config.holdTimeSec = 0;
        config.damping = damping;
        speaker = std::make_unique<BgpSpeaker>(config, this);
        const AsNumber asns[] = {64601, 64602, 65100};
        for (PeerId id = 0; id < 3; ++id) {
            PeerConfig peer;
            peer.id = id;
            peer.asn = asns[id];
            if (id == feedA)
                peer.importPolicy = importA;
            speaker->addPeer(peer);
            speaker->startPeer(id, 0);
            speaker->tcpEstablished(id, 0);
            OpenMessage open;
            open.myAs = uint16_t(asns[id]);
            open.holdTimeSec = 0;
            open.bgpIdentifier = 100 + id;
            speaker->handleMessage(id, open, 0);
            speaker->handleMessage(id, KeepaliveMessage{}, 0);
        }
    }

    void
    onTransmit(PeerId, MessageType, net::WireSegmentPtr, size_t) override
    {}

    void
    onFibUpdate(const FibUpdate &update) override
    {
        fibLog.push_back(update);
    }

    /** One UPDATE from @p peer. */
    void
    send(PeerId peer, std::vector<net::Prefix> withdrawn,
         std::vector<net::Prefix> nlri, PathAttributesPtr attributes,
         uint64_t now = 0)
    {
        UpdateMessage update;
        update.withdrawnRoutes = std::move(withdrawn);
        update.nlri = std::move(nlri);
        update.attributes = std::move(attributes);
        speaker->handleMessage(peer, update, now);
    }

    bool
    advertisedTo(PeerId peer, const net::Prefix &p) const
    {
        return speaker->adjRibOut(peer).find(p) != nullptr;
    }

    std::unique_ptr<BgpSpeaker> speaker;
    std::vector<FibUpdate> fibLog;
};

const net::Prefix slotP = net::Prefix::fromString("10.1.0.0/24");
const net::Prefix slotQ = net::Prefix::fromString("10.2.0.0/24");
const net::Prefix slotS = net::Prefix::fromString("10.3.0.0/24");
const net::Prefix slotR = net::Prefix::fromString("172.16.0.0/24");

} // namespace

TEST(SpeakerSlots, WithdrawFreesSlotThatSameUpdateReuses)
{
    // A's import policy rejects R, so only A's Adj-RIB-In holds it:
    // withdrawing R frees its slot at once, and the decision then reads
    // a freed slot. P is best and advertised, so its slot is freed by
    // the last Adj-RIB-Out withdraw inside the decision. Q and S, in
    // the same UPDATE's NLRI, take both slots back off the free list.
    SlotHarness h({}, makeRejectPrefixPolicy(
                          net::Prefix::fromString("172.16.0.0/16")));
    auto via_a = attrs({64601});
    h.send(SlotHarness::feedA, {}, {slotP, slotR}, via_a);
    ASSERT_NE(h.speaker->locRib().find(slotP), nullptr);
    ASSERT_EQ(h.speaker->locRib().find(slotR), nullptr);
    ASSERT_NE(h.speaker->adjRibIn(SlotHarness::feedA).find(slotR),
              nullptr);
    ASSERT_TRUE(h.advertisedTo(SlotHarness::downstream, slotP));

    h.send(SlotHarness::feedA, {slotR, slotP}, {slotQ, slotS}, via_a);

    const LocRib &loc = h.speaker->locRib();
    EXPECT_EQ(loc.size(), 2u);
    EXPECT_EQ(loc.find(slotP), nullptr);
    ASSERT_NE(loc.find(slotQ), nullptr);
    ASSERT_NE(loc.find(slotS), nullptr);
    EXPECT_EQ(loc.find(slotQ)->best.peer, SlotHarness::feedA);

    // FIB: P installed, then withdrawn, then Q and S installed; the
    // rejected R never reached it.
    ASSERT_EQ(h.fibLog.size(), 4u);
    EXPECT_EQ(h.fibLog[0].prefix, slotP);
    EXPECT_FALSE(h.fibLog[0].isWithdraw());
    EXPECT_EQ(h.fibLog[1].prefix, slotP);
    EXPECT_TRUE(h.fibLog[1].isWithdraw());
    EXPECT_EQ(h.fibLog[2].prefix, slotQ);
    EXPECT_FALSE(h.fibLog[2].isWithdraw());
    EXPECT_EQ(h.fibLog[3].prefix, slotS);
    EXPECT_FALSE(h.fibLog[3].isWithdraw());

    for (PeerId peer : {SlotHarness::feedB, SlotHarness::downstream}) {
        EXPECT_EQ(h.speaker->adjRibOut(peer).size(), 2u);
        EXPECT_FALSE(h.advertisedTo(peer, slotP));
        EXPECT_FALSE(h.advertisedTo(peer, slotR));
        EXPECT_TRUE(h.advertisedTo(peer, slotQ));
        EXPECT_TRUE(h.advertisedTo(peer, slotS));
    }
    EXPECT_EQ(h.speaker->adjRibOut(SlotHarness::feedA).size(), 0u);
    const AdjRibIn &in = h.speaker->adjRibIn(SlotHarness::feedA);
    EXPECT_EQ(in.size(), 2u);
    EXPECT_EQ(in.find(slotP), nullptr);
    EXPECT_EQ(in.find(slotR), nullptr);
}

TEST(SpeakerSlots, LoopedAnnouncementWithdrawsOnlyCopy)
{
    SlotHarness h;
    h.send(SlotHarness::feedA, {}, {slotP}, attrs({64601}));
    ASSERT_NE(h.speaker->locRib().find(slotP), nullptr);
    ASSERT_TRUE(h.advertisedTo(SlotHarness::downstream, slotP));

    // The same peer re-announces P through our own AS: the path would
    // loop, so the announcement acts as a withdrawal of the only copy.
    h.send(SlotHarness::feedA, {}, {slotP}, attrs({64601, 65000, 7}));

    EXPECT_TRUE(h.speaker->locRib().empty());
    ASSERT_EQ(h.fibLog.size(), 2u);
    EXPECT_EQ(h.fibLog[1].prefix, slotP);
    EXPECT_TRUE(h.fibLog[1].isWithdraw());
    EXPECT_FALSE(h.advertisedTo(SlotHarness::downstream, slotP));
    EXPECT_FALSE(h.advertisedTo(SlotHarness::feedB, slotP));
    EXPECT_TRUE(h.speaker->adjRibIn(SlotHarness::feedA).empty());
}

TEST(SpeakerSlots, DampedAttributeChangeChargesAndSuppresses)
{
    // An attribute change costs more than a plain re-announcement
    // here, so the penalty shows that the change was detected.
    DampingConfig damping;
    damping.enabled = true;
    damping.withdrawPenalty = 1000;
    damping.reAnnouncePenalty = 500;
    damping.attributeChangePenalty = 800;
    damping.suppressThreshold = 2000;
    SlotHarness h(damping);
    const uint64_t t = 1'000'000'000;
    const net::Ipv4Address hop_a(10, 0, 1, 1);
    const net::Ipv4Address hop_b(10, 0, 2, 2);
    auto via_b = attrs({64602, 100, 200}, hop_b);
    auto via_a = attrs({64601}, hop_a);
    auto via_a_changed = attrs({64601, 64601}, hop_a);

    h.send(SlotHarness::feedB, {}, {slotP}, via_b, t);
    h.send(SlotHarness::feedA, {}, {slotP}, via_a, t); // fresh: free
    h.send(SlotHarness::feedA, {slotP}, {}, nullptr, t);  // +1000
    h.send(SlotHarness::feedA, {}, {slotP}, via_a, t);   // +500
    ASSERT_EQ(h.speaker->locRib().find(slotP)->best.peer,
              SlotHarness::feedA);
    h.send(SlotHarness::feedA, {}, {slotP}, via_a_changed, t); // +800

    EXPECT_DOUBLE_EQ(
        h.speaker->damper().penalty(SlotHarness::feedA, slotP, t), 2300);
    EXPECT_EQ(h.speaker->counters().announcementsSuppressed, 1u);
    // The suppressed route is stored but kept out of the decision, so
    // B's longer path wins.
    ASSERT_NE(h.speaker->adjRibIn(SlotHarness::feedA).find(slotP),
              nullptr);
    EXPECT_EQ(h.speaker->adjRibIn(SlotHarness::feedA)
                  .find(slotP)
                  ->received,
              via_a_changed);
    const auto *best = h.speaker->locRib().find(slotP);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->best.peer, SlotHarness::feedB);

    std::vector<net::Ipv4Address> hops;
    for (const auto &update : h.fibLog) {
        ASSERT_FALSE(update.isWithdraw());
        hops.push_back(*update.nextHop);
    }
    EXPECT_EQ(hops, (std::vector<net::Ipv4Address>{hop_b, hop_a, hop_b,
                                                   hop_a, hop_b}));
    const auto *out = h.speaker->adjRibOut(SlotHarness::downstream)
                          .find(slotP);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ((*out)->asPath.toString(), "65000 64602 100 200");
}
