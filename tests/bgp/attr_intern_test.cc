/**
 * @file
 * Tests for the attribute interner (hash-consing layer): canonical
 * pointer identity, hit/miss accounting, weak-reference eviction, and
 * the interaction with the decode boundary.
 */

#include <gtest/gtest.h>

#include "bgp/attr_intern.hh"
#include "bgp/message.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

PathAttributes
sample(uint32_t med = 50)
{
    PathAttributes a;
    a.asPath = AsPath::sequence({65001, 100, 200});
    a.nextHop = net::Ipv4Address(10, 0, 0, 9);
    a.med = med;
    a.communities = {0x00640001, 0x00640002};
    return a;
}

/** Restores the process-global interner around each test. */
class GlobalInterner : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto &interner = AttributeInterner::global();
        interner.clear();
        interner.resetStats();
    }

    void
    TearDown() override
    {
        auto &interner = AttributeInterner::global();
        interner.clear();
        interner.resetStats();
    }
};

} // namespace

TEST(AttrIntern, EqualValuesShareOneInstance)
{
    AttributeInterner interner;
    auto a = interner.intern(sample());
    auto b = interner.intern(sample());
    EXPECT_EQ(a.get(), b.get());
    EXPECT_TRUE(a->interned());
    EXPECT_TRUE(sameAttributeValue(a, b));
}

TEST(AttrIntern, DistinctValuesGetDistinctInstances)
{
    AttributeInterner interner;
    auto a = interner.intern(sample(50));
    auto b = interner.intern(sample(51));
    EXPECT_NE(a.get(), b.get());
    EXPECT_FALSE(sameAttributeValue(a, b));
}

TEST(AttrIntern, HitMissStatsAccumulate)
{
    AttributeInterner interner;
    auto a = interner.intern(sample(1));
    auto b = interner.intern(sample(1));
    auto c = interner.intern(sample(2));
    (void)a;
    (void)b;
    (void)c;

    auto stats = interner.stats();
    EXPECT_EQ(stats.lookups, 3u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_DOUBLE_EQ(stats.hitRatio(), 1.0 / 3.0);
    EXPECT_EQ(stats.liveSets, 2u);
    EXPECT_GT(stats.bytesDeduplicated, 0u);
}

TEST(AttrIntern, DeadSetsAreEvicted)
{
    AttributeInterner interner;
    {
        auto a = interner.intern(sample(1));
        auto b = interner.intern(sample(2));
        EXPECT_EQ(interner.stats().liveSets, 2u);
    }
    // The interner only holds weak references: once the last route
    // drops its pointer, the set is gone and the slot reclaimable.
    EXPECT_EQ(interner.stats().liveSets, 0u);
    EXPECT_EQ(interner.sweepExpired(), 2u);
    EXPECT_EQ(interner.stats().trackedSets, 0u);
}

TEST(AttrIntern, ExpiredSlotIsReusedOnNextIntern)
{
    AttributeInterner interner;
    const PathAttributes *first = nullptr;
    {
        auto a = interner.intern(sample());
        first = a.get();
    }
    auto b = interner.intern(sample());
    // A new canonical instance is created (the old one died) and the
    // lookup counts as a miss, not a hit on a dead slot.
    EXPECT_TRUE(b->interned());
    auto stats = interner.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.liveSets, 1u);
    (void)first;
}

TEST(AttrIntern, TableStaysBoundedAcrossChurn)
{
    AttributeInterner interner;
    // Session-reset churn: waves of distinct sets that all die. The
    // amortised sweep keeps the tracked-slot count bounded instead of
    // growing by one slot per dead set forever.
    for (uint32_t wave = 0; wave < 50; ++wave) {
        std::vector<PathAttributesPtr> alive;
        for (uint32_t i = 0; i < 200; ++i)
            alive.push_back(interner.intern(sample(wave * 1000 + i)));
    }
    auto stats = interner.stats();
    EXPECT_EQ(stats.lookups, 50u * 200u);
    EXPECT_EQ(stats.liveSets, 0u);
    EXPECT_LT(stats.trackedSets, 4096u);
    EXPECT_GT(stats.sweeps, 0u);
}

TEST(AttrIntern, ClearUnmarksSurvivorsSoFastPathCannotMisfire)
{
    AttributeInterner interner;
    auto a = interner.intern(sample());
    ASSERT_TRUE(a->interned());
    interner.clear();
    EXPECT_FALSE(a->interned());

    // A set interned after the clear is a different instance with the
    // same value; the two-interned-instances-are-unequal shortcut
    // must not reject the comparison.
    auto b = interner.intern(sample());
    EXPECT_NE(a.get(), b.get());
    EXPECT_TRUE(sameAttributeValue(a, b));
}

TEST(AttrIntern, CopiesStartColdSoMutatedCopiesReinternCorrectly)
{
    AttributeInterner interner;
    auto a = interner.intern(sample());
    ASSERT_NE(a->hash(), 0u);

    // Copying a canonical (the reflection / eBGP-export / policy
    // copy-and-mutate pattern) must not drag along the cached hash or
    // the canonical mark: the copy is about to become a different
    // value.
    PathAttributes mutated = *a;
    EXPECT_FALSE(mutated.interned());
    mutated.med = 9999;
    EXPECT_NE(mutated.hash(), a->hash());

    auto b = interner.intern(std::move(mutated));
    EXPECT_NE(a.get(), b.get());
    EXPECT_FALSE(sameAttributeValue(a, b));
    // The mutated value landed in its own bucket: re-interning it
    // finds the canonical again.
    PathAttributes again = *a;
    again.med = 9999;
    EXPECT_EQ(interner.intern(std::move(again)).get(), b.get());

    // An *unchanged* copy still deduplicates back to the canonical.
    PathAttributes unchanged = *a;
    EXPECT_EQ(interner.intern(std::move(unchanged)).get(), a.get());

    // And assignment resets the destination's state just like
    // construction does.
    PathAttributes assigned;
    assigned = *a;
    EXPECT_FALSE(assigned.interned());
    assigned.localPref = 77;
    EXPECT_FALSE(sameAttributeValue(
        a, std::make_shared<const PathAttributes>(assigned)));
}

TEST(AttrIntern, CrossInternerCanonicalsCompareByValue)
{
    AttributeInterner one;
    AttributeInterner two;

    // Equal values canonicalised by *different* interner instances
    // are distinct pointers, both marked interned — the same-owner
    // guard must keep them comparing equal by value.
    auto a = one.intern(sample());
    auto b = two.intern(sample());
    ASSERT_NE(a.get(), b.get());
    ASSERT_TRUE(a->interned());
    ASSERT_TRUE(b->interned());
    EXPECT_NE(a->internOwner(), b->internOwner());
    EXPECT_TRUE(sameAttributeValue(a, b));

    // Distinct values stay unequal in every combination.
    auto c = two.intern(sample(51));
    EXPECT_FALSE(sameAttributeValue(a, c));
    EXPECT_FALSE(sameAttributeValue(b, c));
}

TEST(AttrIntern, HashIsCachedAndNonZero)
{
    auto a = std::make_shared<const PathAttributes>(sample());
    uint64_t h1 = a->hash();
    uint64_t h2 = a->hash();
    EXPECT_NE(h1, 0u);
    EXPECT_EQ(h1, h2);

    auto b = std::make_shared<const PathAttributes>(sample());
    EXPECT_EQ(b->hash(), h1);
    auto c = std::make_shared<const PathAttributes>(sample(51));
    EXPECT_NE(c->hash(), h1);
}

TEST_F(GlobalInterner, DecodeBoundaryDeduplicatesAcrossPeers)
{
    // The same UPDATE arriving from two peers (two separate decode
    // calls) must yield one shared attribute instance.
    UpdateMessage msg;
    msg.attributes = makeAttributes(sample());
    msg.nlri = {net::Prefix(net::Ipv4Address(10, 1, 1, 0), 24)};
    auto wire = encodeMessage(msg);

    DecodeError error;
    auto from_peer1 = decodeMessage(wire, error);
    ASSERT_TRUE(from_peer1);
    auto from_peer2 = decodeMessage(wire, error);
    ASSERT_TRUE(from_peer2);

    const auto &u1 = std::get<UpdateMessage>(*from_peer1);
    const auto &u2 = std::get<UpdateMessage>(*from_peer2);
    EXPECT_EQ(u1.attributes.get(), u2.attributes.get());
    EXPECT_EQ(u1.attributes.get(), msg.attributes.get());
    EXPECT_GE(AttributeInterner::global().stats().hits, 2u);
}

TEST_F(GlobalInterner, MakeAttributesCanonicalises)
{
    auto a = makeAttributes(sample());
    auto b = makeAttributes(sample());
    EXPECT_EQ(a.get(), b.get());
    EXPECT_TRUE(a->interned());
}
