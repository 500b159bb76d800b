/**
 * @file
 * Tests for the stored RIB structures: Adj-RIB-In and Loc-RIB. The
 * derived Adj-RIB-Out is checked on the wire in adj_rib_out_test.cc.
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
    auto first = rib.update(p1, a);
    EXPECT_TRUE(first.changed);
    EXPECT_EQ(rib.findAt(first.slot), rib.find(p1));
    EXPECT_EQ(rib.size(), 1u);

    // Same content: no change reported.
    auto same = rib.update(p1, a);
    EXPECT_FALSE(same.changed);
    EXPECT_EQ(same.slot, first.slot);

    // Different content: change reported.
    auto b = attrs(200);
    auto replaced = rib.update(p1, b);
    EXPECT_TRUE(replaced.changed);
    EXPECT_EQ(replaced.slot, first.slot);
    EXPECT_EQ(rib.size(), 1u);
    EXPECT_EQ(**rib.find(p1), *b);
}

TEST(AdjRibIn, ValueEqualAttributesAreNoChange)
{
    AdjRibIn rib;
    rib.update(p1, attrs(100));
    // Different pointers, same value.
    EXPECT_FALSE(rib.update(p1, attrs(100)).changed);
}

TEST(AdjRibIn, PolicyRejectionStoredAsNullEffective)
{
    // The RIB stores only the import result: null when the policy
    // rejected the route.
    AdjRibIn rib;
    EXPECT_TRUE(rib.update(p1, nullptr).changed);
    const PathAttributesPtr *stored = rib.find(p1);
    ASSERT_NE(stored, nullptr);
    EXPECT_FALSE(*stored);
    EXPECT_EQ(rib.size(), 1u);

    // A re-announcement the policy rejects again leaves the stored
    // route as it was, whatever its received attributes: no change.
    EXPECT_FALSE(rib.update(p1, nullptr).changed);

    // Accepting the route later is a change.
    EXPECT_TRUE(rib.update(p1, attrs(100)).changed);
    EXPECT_EQ(**rib.find(p1), *attrs(100));

    // So is a rejection of an accepted route.
    EXPECT_TRUE(rib.update(p1, nullptr).changed);
    EXPECT_FALSE(*rib.find(p1));
}

TEST(AdjRibIn, WithdrawRemoves)
{
    AdjRibIn rib;
    auto slot = rib.update(p1, attrs(100)).slot;
    EXPECT_EQ(rib.withdraw(p1), slot);
    EXPECT_EQ(rib.withdraw(p1), SharedPrefixTable::npos);
    EXPECT_EQ(rib.find(p1), nullptr);
    EXPECT_EQ(rib.findAt(slot), nullptr);
}

TEST(AdjRibIn, ForEachVisitsAll)
{
    AdjRibIn rib;
    rib.update(p1, attrs(100));
    rib.update(p2, nullptr);
    size_t seen = 0;
    rib.forEach([&](const net::Prefix &, const PathAttributesPtr &) {
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
    auto slot = in.update(p1, attrs(100)).slot;

    EXPECT_EQ(loc.findAt(slot), nullptr);
    std::vector<Candidate> candidates{Candidate{attrs(100), 1, 10, true},
                                      Candidate{attrs(300), 1, 10, true}};
    const size_t first_alone[] = {0};
    const size_t second_alone[] = {1};
    auto first = loc.selectAt(slot, candidates, first_alone);
    EXPECT_TRUE(first.bestChanged);
    EXPECT_TRUE(first.groupChanged);
    EXPECT_EQ(loc.findAt(slot), loc.find(p1));
    EXPECT_FALSE(loc.selectAt(slot, candidates, first_alone).bestChanged);
    EXPECT_TRUE(
        loc.selectAt(slot, candidates, second_alone).bestChanged);

    // The slot outlives the Adj-RIB-In entry while the Loc-RIB holds
    // it; the Loc-RIB's removal then frees the prefix.
    EXPECT_EQ(in.withdraw(p1), slot);
    EXPECT_EQ(table.find(p1), slot);
    EXPECT_TRUE(loc.removeAt(slot));
    EXPECT_FALSE(loc.removeAt(slot));
    EXPECT_EQ(loc.findAt(slot), nullptr);
    EXPECT_EQ(table.find(p1), SharedPrefixTable::npos);
}
