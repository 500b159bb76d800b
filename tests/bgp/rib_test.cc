/**
 * @file
 * Tests for the three RIB structures.
 */

#include <gtest/gtest.h>

#include "bgp/rib.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

PathAttributesPtr
attrs(uint16_t origin_as, uint32_t local_pref = 100)
{
    PathAttributes a;
    a.asPath = AsPath::sequence({origin_as});
    a.nextHop = net::Ipv4Address(10, 0, 0, 1);
    a.localPref = local_pref;
    return makeAttributes(std::move(a));
}

const net::Prefix p1 = net::Prefix::fromString("10.1.0.0/16");
const net::Prefix p2 = net::Prefix::fromString("10.2.0.0/16");

} // namespace

TEST(AdjRibIn, UpdateInsertsAndReplaces)
{
    AdjRibIn rib;
    EXPECT_TRUE(rib.empty());

    auto a = attrs(100);
    auto first = rib.update(p1, a, a);
    EXPECT_TRUE(first.changed);
    EXPECT_FALSE(first.attributeChange); // a new route, not a flap
    EXPECT_EQ(rib.findAt(first.slot), rib.find(p1));
    EXPECT_EQ(rib.size(), 1u);

    // Same content: no change reported.
    auto same = rib.update(p1, a, a);
    EXPECT_FALSE(same.changed);
    EXPECT_FALSE(same.attributeChange);
    EXPECT_EQ(same.slot, first.slot);

    // Different content: change reported.
    auto b = attrs(200);
    auto replaced = rib.update(p1, b, b);
    EXPECT_TRUE(replaced.changed);
    EXPECT_TRUE(replaced.attributeChange);
    EXPECT_EQ(replaced.slot, first.slot);
    EXPECT_EQ(rib.size(), 1u);
    EXPECT_EQ(*rib.find(p1)->received, *b);
}

TEST(AdjRibIn, ValueEqualAttributesAreNoChange)
{
    AdjRibIn rib;
    rib.update(p1, attrs(100), attrs(100));
    // Different pointers, same value.
    EXPECT_FALSE(rib.update(p1, attrs(100), attrs(100)).changed);
}

TEST(AdjRibIn, PolicyRejectionStoredAsNullEffective)
{
    AdjRibIn rib;
    EXPECT_TRUE(rib.update(p1, attrs(100), nullptr).changed);
    const auto *entry = rib.find(p1);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->received);
    EXPECT_FALSE(entry->effective);

    // Accepting the same route later is a change, but the received
    // attributes did not change.
    auto accepted = rib.update(p1, attrs(100), attrs(100));
    EXPECT_TRUE(accepted.changed);
    EXPECT_FALSE(accepted.attributeChange);
}

TEST(AdjRibIn, WithdrawRemoves)
{
    AdjRibIn rib;
    auto slot = rib.update(p1, attrs(100), attrs(100)).slot;
    EXPECT_EQ(rib.withdraw(p1), slot);
    EXPECT_EQ(rib.withdraw(p1), SharedPrefixTable::npos);
    EXPECT_EQ(rib.find(p1), nullptr);
    EXPECT_EQ(rib.findAt(slot), nullptr);
}

TEST(AdjRibIn, ForEachVisitsAll)
{
    AdjRibIn rib;
    rib.update(p1, attrs(100), attrs(100));
    rib.update(p2, attrs(200), attrs(200));
    size_t seen = 0;
    rib.forEach([&](const net::Prefix &, const AdjRibIn::Entry &) {
        ++seen;
    });
    EXPECT_EQ(seen, 2u);
}

TEST(LocRib, SelectReportsChanges)
{
    LocRib rib;
    Candidate c1{attrs(100), 1, 10, true};
    EXPECT_TRUE(rib.select(p1, c1));
    // Same attributes, same peer: no change.
    EXPECT_FALSE(rib.select(p1, c1));
    // Same attributes from a different peer: change (provenance).
    Candidate c2{attrs(100), 2, 20, true};
    EXPECT_TRUE(rib.select(p1, c2));
    // Different attributes: change.
    Candidate c3{attrs(300), 2, 20, true};
    EXPECT_TRUE(rib.select(p1, c3));
}

TEST(LocRib, RemoveLifecycle)
{
    SharedPrefixTable table;
    LocRib rib(table);
    EXPECT_FALSE(rib.removeAt(table.find(p1)));
    rib.select(p1, Candidate{attrs(100), 1, 10, true});
    EXPECT_EQ(rib.size(), 1u);
    EXPECT_TRUE(rib.removeAt(table.find(p1)));
    EXPECT_TRUE(rib.empty());
    EXPECT_EQ(rib.find(p1), nullptr);
}

TEST(LocRib, SlotAccessOverSharedTable)
{
    // The speaker's shape: the Adj-RIB-In write resolves the slot and
    // the Loc-RIB is then read and written by that slot alone.
    SharedPrefixTable table;
    AdjRibIn in(table);
    LocRib loc(table);
    auto slot = in.update(p1, attrs(100), attrs(100)).slot;

    EXPECT_EQ(loc.findAt(slot), nullptr);
    Candidate c1{attrs(100), 1, 10, true};
    auto first = loc.selectAt(slot, c1);
    EXPECT_TRUE(first.bestChanged);
    EXPECT_TRUE(first.groupChanged);
    EXPECT_EQ(loc.findAt(slot), loc.find(p1));
    EXPECT_FALSE(loc.selectAt(slot, c1).bestChanged);
    EXPECT_TRUE(loc.selectAt(slot, Candidate{attrs(300), 1, 10, true})
                    .bestChanged);

    // The slot outlives the Adj-RIB-In entry while the Loc-RIB holds
    // it; the Loc-RIB's removal then frees the prefix.
    EXPECT_EQ(in.withdraw(p1), slot);
    EXPECT_EQ(table.find(p1), slot);
    EXPECT_TRUE(loc.removeAt(slot));
    EXPECT_FALSE(loc.removeAt(slot));
    EXPECT_EQ(loc.findAt(slot), nullptr);
    EXPECT_EQ(table.find(p1), SharedPrefixTable::npos);
}

TEST(AdjRibOut, AdvertiseSuppressesNoOps)
{
    AdjRibOut rib;
    auto a = attrs(100);
    EXPECT_TRUE(rib.advertise(p1, a));
    // Re-advertising the identical route must not generate traffic.
    EXPECT_FALSE(rib.advertise(p1, a));
    EXPECT_FALSE(rib.advertise(p1, attrs(100)));
    // A new path does.
    EXPECT_TRUE(rib.advertise(p1, attrs(200)));
}

TEST(AdjRibOut, WithdrawOnlyWhenAdvertised)
{
    AdjRibOut rib;
    EXPECT_FALSE(rib.withdraw(p1));
    rib.advertise(p1, attrs(100));
    EXPECT_TRUE(rib.withdraw(p1));
    EXPECT_FALSE(rib.withdraw(p1));
}

TEST(AdjRibOut, FindAndSize)
{
    AdjRibOut rib;
    rib.advertise(p1, attrs(100));
    rib.advertise(p2, attrs(200));
    EXPECT_EQ(rib.size(), 2u);
    ASSERT_NE(rib.find(p1), nullptr);
    EXPECT_EQ((*rib.find(p1))->asPath.originAs(), 100);
    EXPECT_EQ(rib.find(net::Prefix::fromString("9.9.0.0/16")),
              nullptr);
}
