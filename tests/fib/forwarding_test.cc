/**
 * @file
 * Tests for the forwarding table and the RFC-1812 forwarding engine.
 */

#include <gtest/gtest.h>

#include "fib/forwarding_engine.hh"
#include "fib/forwarding_table.hh"

using namespace bgpbench;
using namespace bgpbench::fib;
using net::Ipv4Address;
using net::Prefix;

namespace
{

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
