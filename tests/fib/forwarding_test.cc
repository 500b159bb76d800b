/**
 * @file
 * Tests for the forwarding table and the RFC-1812 forwarding engine.
 */

#include <algorithm>
#include <bit>
#include <vector>

#include <gtest/gtest.h>

#include "fib/forwarding_engine.hh"
#include "fib/forwarding_table.hh"
#include "workload/rng.hh"

using namespace bgpbench;
using namespace bgpbench::fib;
using net::Ipv4Address;
using net::Prefix;

namespace
{

/** An entry tagged by its interface, for telling matches apart. */
FibEntry
tagged(uint32_t tag)
{
    return FibEntry{Ipv4Address(10, 255, 0, 1), tag, {}};
}

/** The interface tag of the longest match for @p addr, or -1. */
int
matchTag(ForwardingTable &table, Ipv4Address addr)
{
    const FibEntry *entry = table.lookup(addr);
    return entry ? int(entry->interface) : -1;
}

ForwardingTable
tableWithRoutes()
{
    ForwardingTable table;
    table.install(Prefix::fromString("10.0.0.0/8"),
                  FibEntry{Ipv4Address(10, 255, 0, 1), 1, {}});
    table.install(Prefix::fromString("10.1.0.0/16"),
                  FibEntry{Ipv4Address(10, 255, 0, 2), 2, {}});
    return table;
}

} // namespace

TEST(ForwardingTable, InstallReplaceRemoveCounters)
{
    ForwardingTable table;
    EXPECT_TRUE(table.install(Prefix::fromString("10.0.0.0/8"),
                              FibEntry{Ipv4Address(1, 1, 1, 1), 1, {}}));
    EXPECT_FALSE(table.install(Prefix::fromString("10.0.0.0/8"),
                               FibEntry{Ipv4Address(2, 2, 2, 2), 2, {}}));
    EXPECT_TRUE(table.remove(Prefix::fromString("10.0.0.0/8")));
    EXPECT_FALSE(table.remove(Prefix::fromString("10.0.0.0/8")));

    EXPECT_EQ(table.counters().installs, 1u);
    EXPECT_EQ(table.counters().replaces, 1u);
    EXPECT_EQ(table.counters().removes, 1u);
}

TEST(ForwardingTable, LookupCountsMisses)
{
    ForwardingTable table = tableWithRoutes();
    EXPECT_NE(table.lookup(Ipv4Address(10, 1, 2, 3)), nullptr);
    EXPECT_EQ(table.lookup(Ipv4Address(99, 0, 0, 1)), nullptr);
    EXPECT_EQ(table.counters().lookups, 2u);
    EXPECT_EQ(table.counters().lookupMisses, 1u);
}

TEST(ForwardingTable, EmptyLookupMisses)
{
    ForwardingTable table;
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.lookup(Ipv4Address(1, 2, 3, 4)), nullptr);
}

TEST(ForwardingTable, InstallAndExact)
{
    ForwardingTable table;
    EXPECT_TRUE(table.install(Prefix::fromString("10.0.0.0/8"), tagged(1)));
    EXPECT_FALSE(table.install(Prefix::fromString("10.0.0.0/8"), tagged(2)));
    EXPECT_EQ(table.size(), 1u);
    ASSERT_NE(table.exact(Prefix::fromString("10.0.0.0/8")), nullptr);
    EXPECT_EQ(table.exact(Prefix::fromString("10.0.0.0/8"))->interface, 2u);
    EXPECT_EQ(table.exact(Prefix::fromString("10.0.0.0/16")), nullptr);
}

TEST(ForwardingTable, LongestMatchWins)
{
    ForwardingTable table;
    table.install(Prefix::fromString("10.0.0.0/8"), tagged(8));
    table.install(Prefix::fromString("10.1.0.0/16"), tagged(16));
    table.install(Prefix::fromString("10.1.2.0/24"), tagged(24));

    EXPECT_EQ(matchTag(table, Ipv4Address(10, 1, 2, 3)), 24);
    EXPECT_EQ(matchTag(table, Ipv4Address(10, 1, 9, 9)), 16);
    EXPECT_EQ(matchTag(table, Ipv4Address(10, 9, 9, 9)), 8);
    EXPECT_EQ(matchTag(table, Ipv4Address(11, 0, 0, 1)), -1);
}

TEST(ForwardingTable, DefaultRouteCatchesEverything)
{
    ForwardingTable table;
    table.install(Prefix(), tagged(0));
    EXPECT_EQ(matchTag(table, Ipv4Address(1, 2, 3, 4)), 0);
    EXPECT_EQ(matchTag(table, Ipv4Address(255, 255, 255, 255)), 0);
}

TEST(ForwardingTable, HostRoute)
{
    ForwardingTable table;
    table.install(Prefix::fromString("10.0.0.5/32"), tagged(5));
    EXPECT_EQ(matchTag(table, Ipv4Address(10, 0, 0, 5)), 5);
    EXPECT_EQ(matchTag(table, Ipv4Address(10, 0, 0, 6)), -1);
}

TEST(ForwardingTable, RemoveExposesShorterPrefix)
{
    ForwardingTable table;
    table.install(Prefix::fromString("10.0.0.0/8"), tagged(8));
    table.install(Prefix::fromString("10.1.0.0/16"), tagged(16));

    EXPECT_TRUE(table.remove(Prefix::fromString("10.1.0.0/16")));
    EXPECT_FALSE(table.remove(Prefix::fromString("10.1.0.0/16")));
    EXPECT_EQ(matchTag(table, Ipv4Address(10, 1, 2, 3)), 8);
    EXPECT_EQ(table.size(), 1u);
}

TEST(ForwardingTable, RemoveMissingReturnsFalse)
{
    ForwardingTable table;
    EXPECT_FALSE(table.remove(Prefix::fromString("10.0.0.0/8")));
}

TEST(ForwardingTable, VisitedNodeCountBounded)
{
    ForwardingTable table;
    table.install(Prefix::fromString("10.1.2.3/32"), tagged(1));
    int visited = 0;
    table.lookup(Ipv4Address(10, 1, 2, 3), &visited);
    EXPECT_GE(visited, 32);
    EXPECT_LE(visited, 33);

    // A miss on a different top octet stops early.
    table.lookup(Ipv4Address(192, 0, 0, 1), &visited);
    EXPECT_LE(visited, 8);
}

TEST(ForwardingTable, VisitedCountsLiveRoutesOnly)
{
    // The lookup work is that of a unibit trie holding the installed
    // routes, so a removed route stops lengthening the walk: removal
    // prunes, it does not leave the removed route's path behind.
    ForwardingTable table;
    table.install(Prefix::fromString("10.0.0.0/8"), tagged(8));
    table.install(Prefix::fromString("10.1.2.0/24"), tagged(24));
    int visited = 0;
    EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 9), &visited)->interface,
              24u);
    EXPECT_EQ(visited, 25);

    EXPECT_TRUE(table.remove(Prefix::fromString("10.1.2.0/24")));
    EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 9), &visited)->interface,
              8u);
    EXPECT_EQ(visited, 9);

    // Reinstalling restores the deeper walk.
    table.install(Prefix::fromString("10.1.2.0/24"), tagged(24));
    table.lookup(Ipv4Address(10, 1, 2, 9), &visited);
    EXPECT_EQ(visited, 25);
}

TEST(ForwardingTable, TableScaleAgreesWithLinearScan)
{
    // Enough routes for the tree's direct-indexed root, then a third
    // removed: lookups, their unibit node count and exact matches
    // must agree with a scan of the routes still installed.
    workload::Rng rng(17);
    std::vector<std::pair<Prefix, uint32_t>> routes;
    ForwardingTable table;
    while (table.size() < 12'000) {
        const Prefix prefix(Ipv4Address(uint32_t(rng.next())),
                            int(rng.range(8, 28)));
        if (table.exact(prefix))
            continue;
        const uint32_t tag = uint32_t(routes.size());
        ASSERT_TRUE(table.install(prefix, tagged(tag)));
        routes.emplace_back(prefix, tag);
    }
    std::vector<std::pair<Prefix, uint32_t>> live;
    for (size_t i = 0; i < routes.size(); ++i) {
        if (i % 3 == 0)
            ASSERT_TRUE(table.remove(routes[i].first));
        else
            live.push_back(routes[i]);
    }
    ASSERT_EQ(table.size(), live.size());

    for (int i = 0; i < 2000; ++i) {
        const Prefix &near = routes[rng.below(routes.size())].first;
        const Ipv4Address addr(near.address().toUint32() |
                               (uint32_t(rng.next()) & 0xffff));
        int want = -1;
        int wantLength = -1;
        int depth = 0;
        for (const auto &[prefix, tag] : live) {
            if (prefix.contains(addr) && prefix.length() > wantLength) {
                want = int(tag);
                wantLength = prefix.length();
            }
            const uint32_t diff =
                prefix.address().toUint32() ^ addr.toUint32();
            const int common = diff == 0 ? 32 : std::countl_zero(diff);
            depth = std::max(depth, std::min(prefix.length(), common));
        }
        int visited = 0;
        const FibEntry *entry = table.lookup(addr, &visited);
        EXPECT_EQ(entry ? int(entry->interface) : -1, want)
            << addr.toString();
        EXPECT_EQ(visited, depth + 1) << addr.toString();
    }
    for (size_t i = 0; i < routes.size(); ++i) {
        const FibEntry *entry = table.exact(routes[i].first);
        if (i % 3 == 0) {
            EXPECT_EQ(entry, nullptr) << routes[i].first.toString();
        } else {
            ASSERT_NE(entry, nullptr) << routes[i].first.toString();
            EXPECT_EQ(entry->interface, routes[i].second);
        }
    }
}

TEST(ForwardingEngine, ForwardsValidPacket)
{
    ForwardingTable table = tableWithRoutes();
    ForwardingEngine engine(&table);

    auto pkt = net::makeDataPacket(Ipv4Address(192, 168, 0, 1),
                                   Ipv4Address(10, 1, 2, 3), 500);
    auto result = engine.process(pkt);

    EXPECT_TRUE(result.forwarded);
    EXPECT_EQ(result.nextHop, Ipv4Address(10, 255, 0, 2));
    EXPECT_EQ(result.egressInterface, 2u);
    EXPECT_GT(result.lookupNodesVisited, 0);
    EXPECT_EQ(pkt.header.ttl, 63);
    // Incremental checksum update kept the header valid.
    EXPECT_TRUE(pkt.checksumValid());
    EXPECT_EQ(engine.counters().forwarded, 1u);
    EXPECT_EQ(engine.counters().bytesForwarded, 500u);
}

TEST(ForwardingEngine, DropsBadChecksum)
{
    ForwardingTable table = tableWithRoutes();
    ForwardingEngine engine(&table);

    auto pkt = net::makeDataPacket(Ipv4Address(192, 168, 0, 1),
                                   Ipv4Address(10, 1, 2, 3), 100);
    pkt.header.headerChecksum ^= 0x1;
    auto result = engine.process(pkt);

    EXPECT_FALSE(result.forwarded);
    EXPECT_EQ(result.dropReason, DropReason::BadChecksum);
    EXPECT_EQ(engine.counters().badChecksum, 1u);
}

TEST(ForwardingEngine, DropsExpiredTtl)
{
    ForwardingTable table = tableWithRoutes();
    ForwardingEngine engine(&table);

    auto pkt = net::makeDataPacket(Ipv4Address(192, 168, 0, 1),
                                   Ipv4Address(10, 1, 2, 3), 100, 1);
    auto result = engine.process(pkt);
    EXPECT_FALSE(result.forwarded);
    EXPECT_EQ(result.dropReason, DropReason::TtlExpired);

    auto zero = net::makeDataPacket(Ipv4Address(192, 168, 0, 1),
                                    Ipv4Address(10, 1, 2, 3), 100, 0);
    result = engine.process(zero);
    EXPECT_EQ(result.dropReason, DropReason::TtlExpired);
    EXPECT_EQ(engine.counters().ttlExpired, 2u);
}

TEST(ForwardingEngine, DropsUnroutable)
{
    ForwardingTable table = tableWithRoutes();
    ForwardingEngine engine(&table);

    auto pkt = net::makeDataPacket(Ipv4Address(192, 168, 0, 1),
                                   Ipv4Address(172, 16, 0, 1), 100);
    auto result = engine.process(pkt);
    EXPECT_FALSE(result.forwarded);
    EXPECT_EQ(result.dropReason, DropReason::NoRoute);
    EXPECT_EQ(engine.counters().noRoute, 1u);
}

TEST(ForwardingEngine, MultiHopTtlChain)
{
    // A packet forwarded through several engines loses one TTL per
    // hop and stays checksum-valid throughout.
    ForwardingTable table = tableWithRoutes();
    ForwardingEngine engine(&table);

    auto pkt = net::makeDataPacket(Ipv4Address(192, 168, 0, 1),
                                   Ipv4Address(10, 1, 2, 3), 100, 5);
    for (int hop = 0; hop < 4; ++hop) {
        auto result = engine.process(pkt);
        ASSERT_TRUE(result.forwarded) << "hop " << hop;
        EXPECT_TRUE(pkt.checksumValid());
    }
    EXPECT_EQ(pkt.header.ttl, 1);
    auto result = engine.process(pkt);
    EXPECT_EQ(result.dropReason, DropReason::TtlExpired);
}

TEST(ForwardingEngine, RouteChangeTakesEffect)
{
    ForwardingTable table = tableWithRoutes();
    ForwardingEngine engine(&table);

    auto pkt = net::makeDataPacket(Ipv4Address(192, 168, 0, 1),
                                   Ipv4Address(10, 1, 2, 3), 100);
    EXPECT_EQ(engine.process(pkt).nextHop, Ipv4Address(10, 255, 0, 2));

    // Control plane replaces the /16's next hop.
    table.install(Prefix::fromString("10.1.0.0/16"),
                  FibEntry{Ipv4Address(10, 255, 0, 9), 3, {}});
    auto pkt2 = net::makeDataPacket(Ipv4Address(192, 168, 0, 1),
                                    Ipv4Address(10, 1, 2, 3), 100);
    EXPECT_EQ(engine.process(pkt2).nextHop,
              Ipv4Address(10, 255, 0, 9));

    // Removing the /16 falls back to the /8.
    table.remove(Prefix::fromString("10.1.0.0/16"));
    auto pkt3 = net::makeDataPacket(Ipv4Address(192, 168, 0, 1),
                                    Ipv4Address(10, 1, 2, 3), 100);
    EXPECT_EQ(engine.process(pkt3).nextHop,
              Ipv4Address(10, 255, 0, 1));
}

TEST(ForwardingEngine, DropReasonNames)
{
    EXPECT_EQ(toString(DropReason::None), "none");
    EXPECT_EQ(toString(DropReason::BadChecksum), "bad-checksum");
    EXPECT_EQ(toString(DropReason::TtlExpired), "ttl-expired");
    EXPECT_EQ(toString(DropReason::NoRoute), "no-route");
}
