/**
 * @file
 * Tests for the Policy handle, its helpers, and every inline
 * PolicyMatch condition and basic set-action, written as route-maps.
 */

#include <gtest/gtest.h>

#include "bgp/policy.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

PathAttributesPtr
attrs(std::vector<AsNumber> path, std::vector<uint32_t> communities = {})
{
    PathAttributes a;
    a.asPath = AsPath::sequence(std::move(path));
    a.nextHop = net::Ipv4Address(10, 0, 0, 1);
    std::sort(communities.begin(), communities.end());
    a.communities = std::move(communities);
    return makeAttributes(std::move(a));
}

const net::Prefix p24 = net::Prefix::fromString("10.1.2.0/24");
const net::Prefix p16 = net::Prefix::fromString("10.1.0.0/16");

/** A permit entry with no clauses: matches every route. */
RouteMapEntry
permitAll(uint32_t seq)
{
    RouteMapEntry entry;
    entry.seq = seq;
    return entry;
}

/** A deny entry with the given inline conditions. */
RouteMapEntry
denyIf(uint32_t seq, PolicyMatch match)
{
    RouteMapEntry entry;
    entry.seq = seq;
    entry.permit = false;
    entry.match = std::move(match);
    return entry;
}

/**
 * An entry matching the routes of the one-entry prefix-list
 * "@p prefix ge @p ge le @p le".
 */
RouteMapEntry
prefixEntry(uint32_t seq, bool permit, const net::Prefix &prefix,
            std::optional<int> ge, std::optional<int> le)
{
    auto list = std::make_shared<PrefixList>("test");
    list->add(5, true, prefix, ge, le);
    RouteMapEntry entry;
    entry.seq = seq;
    entry.permit = permit;
    entry.prefixList = std::move(list);
    return entry;
}

/**
 * @p entries, then a catch-all permit entry that passes every other
 * route through unmodified.
 */
Policy
policyOf(std::vector<RouteMapEntry> entries)
{
    auto map = std::make_shared<RouteMap>("test");
    for (RouteMapEntry &entry : entries)
        map->add(std::move(entry));
    map->add(permitAll(1000));
    return Policy(std::move(map));
}

} // namespace

TEST(Policy, EmptyPolicyAcceptsUnmodified)
{
    Policy policy;
    auto in = attrs({100});
    auto out = policy.apply(p24, in);
    EXPECT_EQ(out, in); // same pointer: no copy taken
}

TEST(Policy, RejectRule)
{
    Policy policy = makeRejectPrefixPolicy(p16);
    EXPECT_EQ(policy.apply(p24, attrs({100})), nullptr);
    // Routes outside the rejected block pass through untouched.
    auto in = attrs({100});
    EXPECT_EQ(policy.apply(net::Prefix::fromString("11.0.0.0/16"), in),
              in);
}

TEST(Policy, FirstMatchWins)
{
    RouteMapEntry accept = prefixEntry(10, true, p16, std::nullopt, 32);
    accept.set.localPref = 300;

    Policy policy = policyOf(
        {accept, prefixEntry(20, false, p16, std::nullopt, 32)});
    auto out = policy.apply(p24, attrs({100}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->localPref, 300u);
}

TEST(Policy, NoMatchFallsThroughToAccept)
{
    // A route no deny entry matches reaches the catch-all permit and
    // keeps its interned attributes.
    Policy policy = policyOf(
        {prefixEntry(10, false, net::Prefix::fromString("192.168.0.0/16"),
                     std::nullopt, 32)});
    auto in = attrs({100});
    EXPECT_EQ(policy.apply(p24, in), in);
}

TEST(Policy, MatchAsPathContains)
{
    PolicyMatch match;
    match.asPathContains = 666;
    Policy policy = policyOf({denyIf(10, match)});

    EXPECT_EQ(policy.apply(p24, attrs({100, 666, 200})), nullptr);
    EXPECT_NE(policy.apply(p24, attrs({100, 200})), nullptr);
}

TEST(Policy, MatchOriginAs)
{
    RouteMapEntry entry;
    entry.match.originAs = 300;
    entry.set.med = 99;
    Policy policy = policyOf({entry});

    auto hit = policy.apply(p24, attrs({100, 300}));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->med, 99u);

    auto in = attrs({300, 100}); // origin is 100, not 300
    EXPECT_EQ(policy.apply(p24, in), in);
}

TEST(Policy, MatchPrefixLengthBounds)
{
    const net::Prefix any = net::Prefix::fromString("0.0.0.0/0");
    // Reject long prefixes.
    Policy policy = policyOf({prefixEntry(10, false, any, 25, 32)});

    EXPECT_EQ(policy.apply(net::Prefix::fromString("10.0.0.0/28"),
                           attrs({1})),
              nullptr);
    EXPECT_NE(policy.apply(p24, attrs({1})), nullptr);

    // Reject short prefixes.
    Policy upper =
        policyOf({prefixEntry(10, false, any, std::nullopt, 16)});
    EXPECT_EQ(upper.apply(p16, attrs({1})), nullptr);
    EXPECT_NE(upper.apply(p24, attrs({1})), nullptr);
}

TEST(Policy, MatchCommunity)
{
    RouteMapEntry entry;
    entry.match.hasCommunity = 0x00010002;
    entry.set.localPref = 50;
    Policy policy = policyOf({entry});

    auto hit = policy.apply(p24, attrs({1}, {0x00010002}));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->localPref, 50u);

    auto in = attrs({1}, {0x00010003});
    EXPECT_EQ(policy.apply(p24, in), in);
}

TEST(Policy, MatchMinAsPathLength)
{
    PolicyMatch match;
    match.minAsPathLength = 3;
    Policy policy = policyOf({denyIf(10, match)});

    EXPECT_EQ(policy.apply(p24, attrs({1, 2, 3})), nullptr);
    EXPECT_NE(policy.apply(p24, attrs({1, 2})), nullptr);
}

TEST(Policy, SetActionsProduceNewAttributes)
{
    RouteMapEntry entry;
    entry.set.localPref = 250;
    entry.set.med = 7;
    entry.set.addCommunities = {0xdead};
    Policy policy = policyOf({entry});

    auto in = attrs({100});
    auto out = policy.apply(p24, in);
    ASSERT_NE(out, nullptr);
    EXPECT_NE(out, in); // modified: distinct block
    EXPECT_EQ(out->localPref, 250u);
    EXPECT_EQ(out->med, 7u);
    EXPECT_EQ(out->communities, std::vector<uint32_t>{0xdead});
    // Original untouched.
    EXPECT_FALSE(in->localPref.has_value());
}

TEST(Policy, AddCommunityIsIdempotent)
{
    RouteMapEntry entry;
    entry.set.addCommunities = {5};
    Policy policy = policyOf({entry});
    auto in = attrs({1}, {5, 9});
    auto out = policy.apply(p24, in);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->communities, (std::vector<uint32_t>{5, 9}));
    EXPECT_EQ(out, in); // nothing to add: no copy taken
}

TEST(Policy, RemoveCommunity)
{
    RouteMapEntry entry;
    entry.set.deleteCommunities = {5};
    Policy policy = policyOf({entry});
    auto out = policy.apply(p24, attrs({1}, {3, 5, 9}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->communities, (std::vector<uint32_t>{3, 9}));
}

TEST(Policy, PrependOnExport)
{
    RouteMapEntry entry;
    entry.set.prependCount = 3;
    Policy policy = policyOf({entry});

    auto out = policy.apply(p24, attrs({100}), 65000);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->asPath.pathLength(), 4);
    EXPECT_EQ(out->asPath.firstAs(), 65000);
}

TEST(Policy, PrependIgnoredOnImport)
{
    RouteMapEntry entry;
    entry.set.prependCount = 3;
    Policy policy = policyOf({entry});

    // prepend_as 0 = import side: prepending is meaningless and the
    // attributes pass through unmodified (same pointer).
    auto in = attrs({100});
    EXPECT_EQ(policy.apply(p24, in, 0), in);
}

TEST(Policy, LocalPrefForAsHelper)
{
    Policy policy = makeLocalPrefForAsPolicy(300, 500);
    auto hit = policy.apply(p24, attrs({100, 300}));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->localPref, 500u);
    // Routes that never crossed AS 300 pass through untouched.
    auto in = attrs({100, 200});
    EXPECT_EQ(policy.apply(p24, in), in);
}

TEST(Policy, NullAttributesPassThrough)
{
    Policy policy;
    EXPECT_EQ(policy.apply(p24, nullptr), nullptr);
}
