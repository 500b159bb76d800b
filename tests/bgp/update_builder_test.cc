/**
 * @file
 * Tests for outbound UPDATE packing.
 */

#include <gtest/gtest.h>

#include <map>

#include "bgp/update_builder.hh"
#include "workload/rng.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

PathAttributesPtr
attrs(uint16_t origin_as)
{
    PathAttributes a;
    a.asPath = AsPath::sequence({origin_as});
    a.nextHop = net::Ipv4Address(10, 0, 0, 1);
    return makeAttributes(std::move(a));
}

net::Prefix
prefix(uint32_t i)
{
    return net::Prefix(net::Ipv4Address(10, uint8_t(i >> 8),
                                        uint8_t(i), 0),
                       24);
}

} // namespace

TEST(UpdateBuilder, EmptyBuildsNothing)
{
    UpdateBuilder builder;
    EXPECT_TRUE(builder.empty());
    EXPECT_TRUE(builder.build().empty());
}

TEST(UpdateBuilder, GroupsByAttributeValue)
{
    UpdateBuilder builder;
    auto a = attrs(100);
    builder.announce(prefix(1), a);
    builder.announce(prefix(2), attrs(100)); // equal value, new ptr
    builder.announce(prefix(3), attrs(200));

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 2u);
    EXPECT_EQ(updates[0].nlri.size(), 2u);
    EXPECT_EQ(updates[1].nlri.size(), 1u);
    EXPECT_TRUE(builder.empty());
}

TEST(UpdateBuilder, WithdrawalsEmittedFirst)
{
    UpdateBuilder builder;
    builder.announce(prefix(1), attrs(100));
    builder.withdraw(prefix(2));

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 2u);
    EXPECT_EQ(updates[0].withdrawnRoutes.size(), 1u);
    EXPECT_TRUE(updates[0].nlri.empty());
    EXPECT_EQ(updates[1].nlri.size(), 1u);
}

TEST(UpdateBuilder, WithdrawSupersedesPendingAnnounce)
{
    UpdateBuilder builder;
    builder.announce(prefix(1), attrs(100));
    builder.withdraw(prefix(1));

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 1u);
    EXPECT_EQ(updates[0].withdrawnRoutes,
              std::vector<net::Prefix>{prefix(1)});
    EXPECT_TRUE(updates[0].nlri.empty());
}

TEST(UpdateBuilder, AnnounceSupersedesPendingWithdraw)
{
    UpdateBuilder builder;
    builder.withdraw(prefix(1));
    builder.announce(prefix(1), attrs(100));

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 1u);
    EXPECT_TRUE(updates[0].withdrawnRoutes.empty());
    EXPECT_EQ(updates[0].nlri, std::vector<net::Prefix>{prefix(1)});
}

TEST(UpdateBuilder, ReannounceReplacesAttributes)
{
    UpdateBuilder builder;
    builder.announce(prefix(1), attrs(100));
    builder.announce(prefix(1), attrs(200));

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 1u);
    EXPECT_EQ(updates[0].attributes->asPath.originAs(), 200);
}

TEST(UpdateBuilder, PendingTransactionCount)
{
    UpdateBuilder builder;
    builder.announce(prefix(1), attrs(100));
    builder.announce(prefix(2), attrs(100));
    builder.withdraw(prefix(3));
    EXPECT_EQ(builder.pendingTransactions(), 3u);
}

TEST(UpdateBuilder, MaxPrefixCapSplitsMessages)
{
    UpdateBuilder builder(10);
    auto a = attrs(100);
    for (uint32_t i = 0; i < 25; ++i)
        builder.announce(prefix(i), a);

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 3u);
    EXPECT_EQ(updates[0].nlri.size(), 10u);
    EXPECT_EQ(updates[1].nlri.size(), 10u);
    EXPECT_EQ(updates[2].nlri.size(), 5u);
}

TEST(UpdateBuilder, CapOfOneMakesSmallPackets)
{
    UpdateBuilder builder(1);
    auto a = attrs(100);
    for (uint32_t i = 0; i < 5; ++i)
        builder.announce(prefix(i), a);
    builder.withdraw(prefix(100));
    builder.withdraw(prefix(101));

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 7u);
    for (const auto &update : updates)
        EXPECT_EQ(update.transactionCount(), 1u);
}

TEST(UpdateBuilder, EveryMessageFitsWireLimit)
{
    UpdateBuilder builder;
    auto a = attrs(100);
    for (uint32_t i = 0; i < 3000; ++i)
        builder.announce(prefix(i), a);

    auto updates = builder.build();
    ASSERT_GT(updates.size(), 1u);
    size_t total = 0;
    for (const auto &update : updates) {
        EXPECT_LE(encodedSize(update), proto::maxMessageBytes);
        total += update.nlri.size();
    }
    EXPECT_EQ(total, 3000u);
}

TEST(UpdateBuilder, WithdrawalsRespectWireLimit)
{
    UpdateBuilder builder;
    for (uint32_t i = 0; i < 3000; ++i)
        builder.withdraw(prefix(i));

    auto updates = builder.build();
    size_t total = 0;
    for (const auto &update : updates) {
        EXPECT_LE(encodedSize(update), proto::maxMessageBytes);
        total += update.withdrawnRoutes.size();
    }
    EXPECT_EQ(total, 3000u);
}

TEST(UpdateBuilder, DuplicateWithdrawCollapses)
{
    UpdateBuilder builder;
    builder.withdraw(prefix(1));
    builder.withdraw(prefix(1));
    builder.withdraw(prefix(1));
    EXPECT_EQ(builder.pendingTransactions(), 1u);

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 1u);
    EXPECT_EQ(updates[0].withdrawnRoutes,
              std::vector<net::Prefix>{prefix(1)});
}

/**
 * Packing regression: groups are emitted in creation order and each
 * group's prefixes keep announcement order, even after supersessions
 * tombstone slots in the middle of a run.
 */
TEST(UpdateBuilder, EmissionOrderSurvivesSupersession)
{
    UpdateBuilder builder;
    auto a = attrs(100);
    auto b = attrs(200);
    builder.announce(prefix(1), a);
    builder.announce(prefix(2), b);
    builder.announce(prefix(3), a);
    builder.announce(prefix(4), a);
    builder.withdraw(prefix(3));     // tombstones a's middle slot
    builder.announce(prefix(2), b);  // re-announce: b keeps one slot

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 3u);
    // Withdrawals first, then group a (created first), then group b.
    EXPECT_EQ(updates[0].withdrawnRoutes,
              std::vector<net::Prefix>{prefix(3)});
    EXPECT_EQ(updates[1].nlri,
              (std::vector<net::Prefix>{prefix(1), prefix(4)}));
    EXPECT_EQ(updates[1].attributes->asPath.originAs(), 100);
    EXPECT_EQ(updates[2].nlri, std::vector<net::Prefix>{prefix(2)});
    EXPECT_EQ(updates[2].attributes->asPath.originAs(), 200);
}

/**
 * Packing regression: a prefix moved between attribute groups lands
 * in (only) the last group, at the position of its final announce.
 */
TEST(UpdateBuilder, RegroupedPrefixCountsOnce)
{
    UpdateBuilder builder;
    builder.announce(prefix(1), attrs(100));
    builder.announce(prefix(2), attrs(100));
    builder.announce(prefix(1), attrs(200));

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 2u);
    EXPECT_EQ(updates[0].nlri, std::vector<net::Prefix>{prefix(2)});
    EXPECT_EQ(updates[1].nlri, std::vector<net::Prefix>{prefix(1)});
    EXPECT_EQ(updates[1].attributes->asPath.originAs(), 200);
}

/** Packing regression: the cap chunks a group into exact runs. */
TEST(UpdateBuilder, CapChunksKeepOrderWithinGroup)
{
    UpdateBuilder builder(2);
    auto a = attrs(100);
    for (uint32_t i = 0; i < 5; ++i)
        builder.announce(prefix(i), a);

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 3u);
    EXPECT_EQ(updates[0].nlri,
              (std::vector<net::Prefix>{prefix(0), prefix(1)}));
    EXPECT_EQ(updates[1].nlri,
              (std::vector<net::Prefix>{prefix(2), prefix(3)}));
    EXPECT_EQ(updates[2].nlri, std::vector<net::Prefix>{prefix(4)});
}

/** A large group count exercises the group index, not a linear scan. */
TEST(UpdateBuilder, ManyDistinctGroupsRoundTrip)
{
    UpdateBuilder builder;
    for (uint32_t i = 0; i < 300; ++i)
        builder.announce(prefix(i), attrs(uint16_t(1 + i)));

    auto updates = builder.build();
    ASSERT_EQ(updates.size(), 300u);
    for (uint32_t i = 0; i < 300; ++i) {
        EXPECT_EQ(updates[i].nlri, std::vector<net::Prefix>{prefix(i)});
        EXPECT_EQ(updates[i].attributes->asPath.originAs(),
                  uint16_t(1 + i));
    }
}

/** Property: build() conserves the exact set of pending changes. */
TEST(UpdateBuilderProperty, BuildConservesChanges)
{
    workload::Rng rng(37);
    for (int trial = 0; trial < 60; ++trial) {
        UpdateBuilder builder(rng.range(0, 20));

        std::map<net::Prefix, int> expected; // 1 announce, -1 withdraw
        int n = int(rng.range(1, 200));
        for (int i = 0; i < n; ++i) {
            auto p = prefix(uint32_t(rng.range(0, 60)));
            if (rng.below(3) == 0) {
                builder.withdraw(p);
                expected[p] = -1;
            } else {
                builder.announce(p, attrs(uint16_t(rng.range(1, 4))));
                expected[p] = 1;
            }
        }

        std::map<net::Prefix, int> got;
        for (const auto &update : builder.build()) {
            for (const auto &p : update.withdrawnRoutes) {
                EXPECT_EQ(got.count(p), 0u);
                got[p] = -1;
            }
            for (const auto &p : update.nlri) {
                EXPECT_EQ(got.count(p), 0u);
                got[p] = 1;
            }
        }
        EXPECT_EQ(got, expected) << "trial " << trial;
    }
}

/**
 * build() resets the builder's storage rather than freeing it, appends
 * to the caller's vector, and sheds what a full-table flush inflated.
 */
TEST(UpdateBuilder, StorageIsReusedAcrossFlushesAndBounded)
{
    // Supersessions and two groups exercise every kind of reset state.
    auto fill = [](UpdateBuilder &builder, uint32_t count) {
        for (uint32_t i = 0; i < count; ++i)
            builder.announce(prefix(i), attrs(uint16_t(100 + i % 2)));
        for (uint32_t i = 0; i < count; i += 7)
            builder.withdraw(prefix(i));
        builder.withdraw(prefix(count + 1));
    };
    auto same = [](const UpdateMessage &x, const UpdateMessage &y) {
        return x.attributes == y.attributes &&
               x.withdrawnRoutes == y.withdrawnRoutes &&
               x.nlri == y.nlri;
    };

    UpdateBuilder fresh;
    fill(fresh, 300);
    const auto expected = fresh.build();

    UpdateBuilder reused;
    std::vector<UpdateMessage> out;
    fill(reused, 300);
    reused.build(out);
    const size_t kept = reused.memoryBytes();
    EXPECT_GT(kept, 0u);
    EXPECT_LE(kept, UpdateBuilder::retainBytes);
    ASSERT_EQ(out.size(), expected.size());

    // A second identical flush packs exactly like a fresh builder,
    // appends after the first flush's messages and needs no more
    // storage than the first one kept.
    fill(reused, 300);
    reused.build(out);
    EXPECT_EQ(reused.memoryBytes(), kept);
    ASSERT_EQ(out.size(), 2 * expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_TRUE(same(out[expected.size() + i], expected[i])) << i;

    // A full-table flush sheds its storage instead of keeping it.
    out.clear();
    for (uint32_t i = 0; i < 60000; ++i)
        reused.announce(prefix(i), attrs(100));
    EXPECT_GT(reused.memoryBytes(), UpdateBuilder::retainBytes);
    reused.build(out);
    EXPECT_TRUE(reused.empty());
    EXPECT_LE(reused.memoryBytes(), UpdateBuilder::retainBytes);
    size_t total = 0;
    for (const auto &update : out)
        total += update.nlri.size();
    EXPECT_EQ(total, 60000u);
}
