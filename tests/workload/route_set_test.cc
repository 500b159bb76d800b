/**
 * @file
 * Tests for routing-table generation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "net/logging.hh"
#include "workload/route_set.hh"
#include "workload/rng.hh"

using namespace bgpbench;
using namespace bgpbench::workload;

TEST(Rng, Deterministic)
{
    Rng a(99);
    Rng b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, RangeBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.range(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RouteSet, GeneratesRequestedCount)
{
    RouteSetConfig config;
    config.count = 1234;
    auto routes = generateRouteSet(config);
    EXPECT_EQ(routes.size(), 1234u);
}

TEST(RouteSet, PrefixesAreUnique)
{
    RouteSetConfig config;
    config.count = 5000;
    auto routes = generateRouteSet(config);
    std::unordered_set<net::Prefix> seen;
    for (const auto &r : routes)
        EXPECT_TRUE(seen.insert(r.prefix).second)
            << r.prefix.toString();
}

TEST(RouteSet, DeterministicInSeed)
{
    RouteSetConfig config;
    config.count = 200;
    config.seed = 7;
    auto a = generateRouteSet(config);
    auto b = generateRouteSet(config);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].prefix, b[i].prefix);
        EXPECT_EQ(a[i].basePath, b[i].basePath);
    }

    config.seed = 8;
    auto c = generateRouteSet(config);
    bool any_diff = false;
    for (size_t i = 0; i < a.size(); ++i)
        any_diff = any_diff || a[i].prefix != c[i].prefix;
    EXPECT_TRUE(any_diff);
}

TEST(RouteSet, PathLengthsWithinBounds)
{
    RouteSetConfig config;
    config.count = 500;
    size_t shortest = size_t(maxPathLength), longest = 0;
    for (const auto &r : generateRouteSet(config)) {
        shortest = std::min(shortest, r.basePath.size());
        longest = std::max(longest, r.basePath.size());
        for (auto asn : r.basePath)
            EXPECT_NE(asn, 0);
    }
    // 500 draws reach both ends of the 1..4 range.
    EXPECT_EQ(shortest, size_t(minPathLength));
    EXPECT_EQ(longest, size_t(maxPathLength));
}

TEST(RouteSet, MaskLengthMixMatchesConfig)
{
    RouteSetConfig config;
    config.count = 4000;
    size_t slash24 = 0;
    for (const auto &r : generateRouteSet(config)) {
        EXPECT_GE(r.prefix.length(), 16);
        EXPECT_LE(r.prefix.length(), 24);
        slash24 += r.prefix.length() == 24;
    }
    EXPECT_NEAR(double(slash24) / 4000.0, slash24Fraction, 0.05);
}

TEST(RouteSet, AvoidsLoopbackSpace)
{
    RouteSetConfig config;
    config.count = 3000;
    for (const auto &r : generateRouteSet(config)) {
        EXPECT_NE(r.prefix.address().octet(0), 127) << "loopback";
        EXPECT_GE(r.prefix.address().octet(0), 11);
        EXPECT_LE(r.prefix.address().octet(0), 200);
    }
}

TEST(RouteSet, RejectsBadConfig)
{
    RouteSetConfig config;
    config.count = 0;
    EXPECT_THROW(generateRouteSet(config), FatalError);
}

TEST(DestinationPool, AddressesInsideRoutes)
{
    RouteSetConfig config;
    config.count = 100;
    auto routes = generateRouteSet(config);
    auto pool = destinationPool(routes, 256, 5);
    ASSERT_EQ(pool.size(), 256u);
    for (const auto &addr : pool) {
        bool covered = false;
        for (const auto &r : routes)
            covered = covered || r.prefix.contains(addr);
        EXPECT_TRUE(covered) << addr.toString();
    }
}

TEST(DestinationPool, RequiresRoutes)
{
    EXPECT_THROW(destinationPool({}, 4, 1), FatalError);
}
