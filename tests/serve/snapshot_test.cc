/**
 * @file
 * Tests for immutable epoch-stamped RIB snapshots.
 */

#include <vector>

#include <gtest/gtest.h>

#include "bgp/rib.hh"
#include "serve/snapshot.hh"

using namespace bgpbench;
using namespace bgpbench::serve;

namespace
{

bgp::PathAttributesPtr
attrs(uint16_t origin_as)
{
    bgp::PathAttributes a;
    a.asPath = bgp::AsPath::sequence({origin_as});
    a.nextHop = net::Ipv4Address(10, 0, 0, 1);
    return bgp::makeAttributes(std::move(a));
}

net::Prefix
pfx(const std::string &text)
{
    return net::Prefix::fromString(text);
}

void
install(bgp::LocRib &rib, const std::string &prefix, bgp::PeerId peer,
        uint16_t origin_as, bool local = false)
{
    bgp::Candidate candidate;
    candidate.attributes = attrs(origin_as);
    candidate.peer = peer;
    candidate.locallyOriginated = local;
    rib.select(pfx(prefix), candidate);
}

} // namespace

TEST(RibSnapshot, EmptySnapshotAnswersEverything)
{
    RibSnapshot empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.epoch(), 0u);
    EXPECT_EQ(empty.bestPath(pfx("10.0.0.0/8")), nullptr);
    EXPECT_EQ(empty.lookup(net::Ipv4Address(10, 0, 0, 1)), nullptr);
    EXPECT_EQ(
        empty.scan(pfx("0.0.0.0/0"), 0, [](const SnapshotRoute &) {}),
        0u);
    EXPECT_TRUE(empty.peerSummaries().empty());
    EXPECT_TRUE(empty.verifyChecksum());
}

TEST(RibSnapshot, BuildFreezesRoutesInPrefixOrder)
{
    bgp::LocRib rib;
    install(rib, "10.2.0.0/16", 2, 200);
    install(rib, "10.1.0.0/16", 1, 100);
    install(rib, "10.3.0.0/24", 1, 100);

    RibSnapshotPtr snapshot = RibSnapshot::build(rib, 7, 12345);
    EXPECT_EQ(snapshot->epoch(), 7u);
    EXPECT_EQ(snapshot->publishedAtNs(), 12345u);
    ASSERT_EQ(snapshot->size(), 3u);

    // Sorted by (address, length) regardless of hash-map order.
    EXPECT_EQ(snapshot->routes()[0].prefix, pfx("10.1.0.0/16"));
    EXPECT_EQ(snapshot->routes()[1].prefix, pfx("10.2.0.0/16"));
    EXPECT_EQ(snapshot->routes()[2].prefix, pfx("10.3.0.0/24"));

    // Attributes are shared, not copied.
    const SnapshotRoute *route = snapshot->bestPath(pfx("10.1.0.0/16"));
    ASSERT_NE(route, nullptr);
    EXPECT_EQ(route->peer, bgp::PeerId(1));
    ASSERT_TRUE(route->attributes);
    EXPECT_EQ(route->attributes, rib.find(pfx("10.1.0.0/16"))
                                     ->best.attributes);
}

TEST(RibSnapshot, LookupFindsLongestMatch)
{
    bgp::LocRib rib;
    install(rib, "0.0.0.0/0", 9, 900);
    install(rib, "10.0.0.0/8", 1, 100);
    install(rib, "10.1.0.0/16", 2, 200);

    RibSnapshotPtr snapshot = RibSnapshot::build(rib, 1, 0);
    EXPECT_EQ(snapshot->lookup(net::Ipv4Address(10, 1, 2, 3))->prefix,
              pfx("10.1.0.0/16"));
    EXPECT_EQ(snapshot->lookup(net::Ipv4Address(10, 9, 0, 1))->prefix,
              pfx("10.0.0.0/8"));
    EXPECT_EQ(snapshot->lookup(net::Ipv4Address(192, 168, 0, 1))->prefix,
              pfx("0.0.0.0/0"));
}

TEST(RibSnapshot, ScanVisitsOnlyCoveredRoutes)
{
    bgp::LocRib rib;
    install(rib, "0.0.0.0/0", 9, 900);
    install(rib, "10.0.0.0/8", 1, 100);
    install(rib, "10.0.0.0/16", 1, 100);
    install(rib, "10.1.0.0/16", 2, 200);
    install(rib, "10.1.5.0/24", 2, 200);
    install(rib, "11.0.0.0/8", 3, 300);

    RibSnapshotPtr snapshot = RibSnapshot::build(rib, 1, 0);

    std::vector<net::Prefix> seen;
    size_t visited = snapshot->scan(
        pfx("10.0.0.0/8"), 0,
        [&seen](const SnapshotRoute &route) {
            seen.push_back(route.prefix);
        });
    EXPECT_EQ(visited, 4u);
    ASSERT_EQ(seen.size(), 4u);
    // Ascending order; 0.0.0.0/0 and 11/8 excluded.
    EXPECT_EQ(seen[0], pfx("10.0.0.0/8"));
    EXPECT_EQ(seen[1], pfx("10.0.0.0/16"));
    EXPECT_EQ(seen[2], pfx("10.1.0.0/16"));
    EXPECT_EQ(seen[3], pfx("10.1.5.0/24"));

    // A range sharing its base address with a shorter stored prefix
    // must not return the shorter one.
    seen.clear();
    snapshot->scan(pfx("10.1.0.0/16"), 0,
                   [&seen](const SnapshotRoute &route) {
                       seen.push_back(route.prefix);
                   });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], pfx("10.1.0.0/16"));
    EXPECT_EQ(seen[1], pfx("10.1.5.0/24"));

    // The limit truncates mid-range.
    seen.clear();
    visited = snapshot->scan(pfx("10.0.0.0/8"), 2,
                             [&seen](const SnapshotRoute &route) {
                                 seen.push_back(route.prefix);
                             });
    EXPECT_EQ(visited, 2u);
    EXPECT_EQ(seen.size(), 2u);
}

TEST(RibSnapshot, ScanAtAddressSpaceEdge)
{
    bgp::LocRib rib;
    install(rib, "255.255.255.0/24", 1, 100);
    install(rib, "255.0.0.0/8", 1, 100);

    RibSnapshotPtr snapshot = RibSnapshot::build(rib, 1, 0);
    // The range's broadcast address is 255.255.255.255; the span test
    // must not overflow past it.
    size_t visited = snapshot->scan(pfx("255.0.0.0/8"), 0,
                                    [](const SnapshotRoute &) {});
    EXPECT_EQ(visited, 2u);
}

TEST(RibSnapshot, PeerSummariesCountBestPaths)
{
    bgp::LocRib rib;
    install(rib, "10.1.0.0/16", 5, 100);
    install(rib, "10.2.0.0/16", 5, 100);
    install(rib, "10.3.0.0/16", 2, 200);
    install(rib, "10.4.0.0/16", 0, 0, true); // locally originated

    RibSnapshotPtr snapshot = RibSnapshot::build(rib, 1, 0);
    const auto &peers = snapshot->peerSummaries();
    ASSERT_EQ(peers.size(), 3u);
    // Sorted by peer id.
    EXPECT_EQ(peers[0].peer, bgp::PeerId(0));
    EXPECT_EQ(peers[0].bestPaths, 1u);
    EXPECT_EQ(peers[1].peer, bgp::PeerId(2));
    EXPECT_EQ(peers[1].bestPaths, 1u);
    EXPECT_EQ(peers[2].peer, bgp::PeerId(5));
    EXPECT_EQ(peers[2].bestPaths, 2u);

    const SnapshotRoute *local = snapshot->bestPath(pfx("10.4.0.0/16"));
    ASSERT_NE(local, nullptr);
    EXPECT_TRUE(local->locallyOriginated);
}

TEST(RibSnapshot, ChecksumCoversContentAndEpoch)
{
    bgp::LocRib rib;
    install(rib, "10.1.0.0/16", 1, 100);

    RibSnapshotPtr a = RibSnapshot::build(rib, 1, 0);
    RibSnapshotPtr same = RibSnapshot::build(rib, 1, 99);
    EXPECT_TRUE(a->verifyChecksum());
    // publishedAtNs is metadata, not content.
    EXPECT_EQ(a->checksum(), same->checksum());

    RibSnapshotPtr other_epoch = RibSnapshot::build(rib, 2, 0);
    EXPECT_NE(a->checksum(), other_epoch->checksum());

    install(rib, "10.2.0.0/16", 2, 200);
    RibSnapshotPtr grown = RibSnapshot::build(rib, 1, 0);
    EXPECT_NE(a->checksum(), grown->checksum());
    EXPECT_TRUE(grown->verifyChecksum());
}

TEST(RibSnapshot, OldEpochSurvivesNewerBuilds)
{
    bgp::SharedPrefixTable table;
    bgp::LocRib rib(table);
    install(rib, "10.1.0.0/16", 1, 100);
    RibSnapshotPtr old_snapshot = RibSnapshot::build(rib, 1, 0);

    // Mutate the writer's table and build newer epochs; the old
    // snapshot must stay intact and verifiable (RCU grace by
    // refcount).
    rib.removeAt(table.find(pfx("10.1.0.0/16")));
    install(rib, "10.9.0.0/16", 9, 900);
    RibSnapshotPtr newer = RibSnapshot::build(rib, 2, 0);

    EXPECT_EQ(old_snapshot->size(), 1u);
    EXPECT_NE(old_snapshot->bestPath(pfx("10.1.0.0/16")), nullptr);
    EXPECT_TRUE(old_snapshot->verifyChecksum());
    EXPECT_EQ(newer->bestPath(pfx("10.1.0.0/16")), nullptr);
}
