/**
 * @file
 * Tests of bgp::SharedPrefixTable and the RIBs built on it. The core
 * guarantee under test: RIBs over a shared prefix table behave exactly
 * like plain std::map reference models for every operation
 * (insert/replace/withdraw/iterate), while columns sharing one table
 * never interfere, and iteration order is deterministic and ascending.
 */

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/attr_intern.hh"
#include "bgp/prefix_table.hh"
#include "bgp/rib.hh"
#include "workload/rng.hh"
#include "workload/route_set.hh"

using namespace bgpbench;

namespace
{

net::Prefix
pfx(const std::string &text)
{
    return net::Prefix::fromString(text);
}

bgp::PathAttributesPtr
attrs(uint32_t tag)
{
    bgp::PathAttributes a;
    a.origin = bgp::Origin::Igp;
    a.nextHop = net::Ipv4Address(10, 0, 0, 1);
    a.asPath =
        bgp::AsPath::sequence({65000, bgp::AsNumber(tag & 0xffff)});
    return bgp::makeAttributes(std::move(a));
}

bgp::Candidate
candidate(uint32_t tag)
{
    bgp::Candidate c;
    c.attributes = attrs(tag);
    c.peer = 1;
    c.peerRouterId = 100;
    return c;
}

/** Deterministic mixed-length prefix pool with frequent collisions. */
std::vector<net::Prefix>
prefixPool(size_t count, uint64_t seed)
{
    workload::Rng rng(seed);
    std::vector<net::Prefix> pool;
    pool.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        int length = 8 + int(rng.below(25));
        pool.emplace_back(net::Ipv4Address(uint32_t(rng.next())),
                          length);
    }
    return pool;
}

/*
 * Reference models: one std::map per RIB kind with the RIB's
 * return-value contract. update/advertise/select report a value change
 * (sameAttributeValue), withdraw/remove report presence, and the map
 * pins ascending prefix iteration order.
 */

struct AdjRibInModel
{
    std::map<net::Prefix, bgp::AdjRibIn::Entry> routes;

    bool
    update(const net::Prefix &p, bgp::PathAttributesPtr received,
           bgp::PathAttributesPtr effective)
    {
        auto [it, inserted] = routes.try_emplace(p);
        if (!inserted &&
            bgp::sameAttributeValue(it->second.received, received) &&
            bgp::sameAttributeValue(it->second.effective, effective))
            return false;
        it->second = {std::move(received), std::move(effective)};
        return true;
    }

    bool withdraw(const net::Prefix &p) { return routes.erase(p) > 0; }
};

struct LocRibModel
{
    std::map<net::Prefix, bgp::Candidate> best;

    bool
    select(const net::Prefix &p, bgp::Candidate c)
    {
        auto [it, inserted] = best.try_emplace(p);
        bool changed =
            inserted ||
            !bgp::sameAttributeValue(it->second.attributes,
                                     c.attributes) ||
            it->second.peer != c.peer;
        it->second = std::move(c);
        return changed;
    }

    bool remove(const net::Prefix &p) { return best.erase(p) > 0; }
};

struct AdjRibOutModel
{
    std::map<net::Prefix, bgp::PathAttributesPtr> advertised;

    bool
    advertise(const net::Prefix &p, bgp::PathAttributesPtr attrs)
    {
        auto [it, inserted] = advertised.try_emplace(p);
        if (!inserted && bgp::sameAttributeValue(it->second, attrs))
            return false;
        it->second = std::move(attrs);
        return true;
    }

    bool
    withdraw(const net::Prefix &p)
    {
        return advertised.erase(p) > 0;
    }
};

} // namespace

TEST(SharedPrefixTable, AcquireRefcountsAndRecyclesSlots)
{
    bgp::SharedPrefixTable table;
    const auto p1 = pfx("10.0.0.0/8");
    const auto p2 = pfx("10.1.0.0/16");

    EXPECT_EQ(table.find(p1), bgp::SharedPrefixTable::npos);

    // Acquiring a reference is resolve() plus addRef(), the protocol a
    // column follows on its first write of a prefix.
    auto acquire = [&table](const net::Prefix &p) {
        const auto slot = table.resolve(p);
        table.addRef(slot);
        return slot;
    };

    const auto s1 = acquire(p1);
    ASSERT_NE(s1, bgp::SharedPrefixTable::npos);
    EXPECT_EQ(table.find(p1), s1);
    EXPECT_EQ(table.prefixOf(s1), p1);
    EXPECT_EQ(table.prefixCount(), 1u);

    // A second acquire of the same prefix shares the slot.
    EXPECT_EQ(acquire(p1), s1);
    table.addRef(s1);
    EXPECT_EQ(table.prefixCount(), 1u);

    const auto s2 = acquire(p2);
    EXPECT_NE(s2, s1);

    // Three refs on s1: drop them one by one; the prefix must stay
    // findable until the last release.
    table.release(s1);
    table.release(s1);
    EXPECT_EQ(table.find(p1), s1);
    table.release(s1);
    EXPECT_EQ(table.find(p1), bgp::SharedPrefixTable::npos);
    EXPECT_EQ(table.prefixCount(), 1u);

    // The freed slot is recycled before the span grows.
    const size_t span = table.slotSpan();
    const auto s3 = acquire(pfx("192.168.0.0/24"));
    EXPECT_EQ(s3, s1);
    EXPECT_EQ(table.slotSpan(), span);
    EXPECT_EQ(table.prefixOf(s3), pfx("192.168.0.0/24"));
}

TEST(SharedPrefixTable, ColumnsShareStructureWithoutInterference)
{
    bgp::SharedPrefixTable table;
    bgp::AdjRibIn in_a(table);
    bgp::AdjRibIn in_b(table);

    const auto p = pfx("10.0.0.0/8");
    in_a.update(p, attrs(1), attrs(1));
    EXPECT_EQ(in_a.size(), 1u);
    // The same prefix, same table, other column: invisible.
    EXPECT_EQ(in_b.find(p), nullptr);

    in_b.update(p, attrs(2), attrs(2));
    EXPECT_EQ(table.prefixCount(), 1u); // structure stored once

    // Withdrawing from one column must not disturb the other.
    EXPECT_NE(in_a.withdraw(p), bgp::SharedPrefixTable::npos);
    EXPECT_EQ(in_a.find(p), nullptr);
    ASSERT_NE(in_b.find(p), nullptr);
    EXPECT_EQ(in_b.find(p)->received, attrs(2));

    EXPECT_NE(in_b.withdraw(p), bgp::SharedPrefixTable::npos);
    EXPECT_EQ(table.prefixCount(), 0u); // last ref frees the prefix
}

TEST(SharedPrefixTable, RecycledSlotDoesNotLeakStaleColumnEntries)
{
    bgp::SharedPrefixTable table;
    bgp::AdjRibIn in_a(table);
    bgp::AdjRibIn in_b(table);

    const auto old_prefix = pfx("10.0.0.0/8");
    in_a.update(old_prefix, attrs(1), attrs(1));
    in_b.update(old_prefix, attrs(2), attrs(2));
    in_a.withdraw(old_prefix);
    in_b.withdraw(old_prefix);

    // The slot is recycled for a different prefix; neither column may
    // resurrect the old entry through the reused slot.
    const auto new_prefix = pfx("172.16.0.0/12");
    in_a.update(new_prefix, attrs(3), attrs(3));
    EXPECT_EQ(in_a.find(old_prefix), nullptr);
    EXPECT_EQ(in_b.find(new_prefix), nullptr);
    ASSERT_NE(in_a.find(new_prefix), nullptr);
    EXPECT_EQ(in_a.find(new_prefix)->received, attrs(3));
}

TEST(SharedPrefixTable, RandomizedLockstepAgainstHashBackend)
{
    // One shared table with the three RIB kinds as columns (the
    // speaker's shape) against std::map reference models (they stand
    // in for the per-RIB hash maps the tree replaced), driven by one
    // random op sequence. Every return value and every iteration must
    // agree.
    bgp::SharedPrefixTable table;
    bgp::AdjRibIn tree_in(table);
    bgp::LocRib tree_loc(table);
    bgp::AdjRibOut tree_out(table);
    AdjRibInModel model_in;
    LocRibModel model_loc;
    AdjRibOutModel model_out;

    const auto pool = prefixPool(200, 9);
    workload::Rng rng(17);

    auto compareIteration = [&] {
        std::vector<std::pair<net::Prefix, const void *>> a, b;
        std::vector<net::Prefix> pa, pb;
        tree_in.forEach(
            [&](const net::Prefix &p, const bgp::AdjRibIn::Entry &e) {
                a.emplace_back(p, e.received.get());
            });
        for (const auto &[p, e] : model_in.routes)
            b.emplace_back(p, e.received.get());
        ASSERT_EQ(a, b);
        tree_loc.forEach(
            [&](const net::Prefix &p, const bgp::LocRib::Entry &) {
                pa.push_back(p);
            });
        for (const auto &[p, c] : model_loc.best)
            pb.push_back(p);
        ASSERT_EQ(pa, pb);
        pa.clear();
        pb.clear();
        tree_out.forEach(
            [&](const net::Prefix &p, const bgp::PathAttributesPtr &) {
                pa.push_back(p);
            });
        for (const auto &[p, attrs] : model_out.advertised)
            pb.push_back(p);
        ASSERT_EQ(pa, pb);
    };

    for (int op = 0; op < 30000; ++op) {
        const net::Prefix &p = pool[rng.below(pool.size())];
        const uint32_t tag = uint32_t(rng.below(8));
        switch (rng.below(6)) {
          case 0:
            EXPECT_EQ(tree_in.update(p, attrs(tag), attrs(tag)).changed,
                      model_in.update(p, attrs(tag), attrs(tag)));
            break;
          case 1:
            EXPECT_EQ(tree_in.withdraw(p) != bgp::SharedPrefixTable::npos,
                      model_in.withdraw(p));
            break;
          case 2:
            EXPECT_EQ(tree_loc.select(p, candidate(tag)),
                      model_loc.select(p, candidate(tag)));
            break;
          case 3:
            EXPECT_EQ(tree_loc.removeAt(table.find(p)),
                      model_loc.remove(p));
            break;
          case 4:
            EXPECT_EQ(tree_out.advertise(p, attrs(tag)),
                      model_out.advertise(p, attrs(tag)));
            break;
          case 5:
            EXPECT_EQ(tree_out.withdraw(p), model_out.withdraw(p));
            break;
        }
        ASSERT_EQ(tree_in.size(), model_in.routes.size());
        ASSERT_EQ(tree_loc.size(), model_loc.best.size());
        ASSERT_EQ(tree_out.size(), model_out.advertised.size());
        if (op % 5000 == 4999)
            compareIteration();
    }
    compareIteration();

    // Point lookups agree over the whole pool at the final state.
    for (const auto &p : pool) {
        const auto *ta = tree_in.find(p);
        auto ha = model_in.routes.find(p);
        ASSERT_EQ(ta != nullptr, ha != model_in.routes.end());
        if (ta) {
            EXPECT_EQ(ta->received, ha->second.received);
        }
    }
}

TEST(SharedPrefixTable, IterationOrderDeterministicAt100k)
{
    // 100k-prefix table: the tree must produce the same strictly
    // ascending prefix sequence as an ordered map of the same routes —
    // the property the snapshot and dump layers rely on instead of
    // sorting.
    workload::RouteSetConfig config;
    config.count = 100000;
    config.seed = 23;
    const auto routes = workload::generateRouteSet(config);

    bgp::SharedPrefixTable table;
    bgp::LocRib tree_loc(table);
    LocRibModel model_loc;
    tree_loc.reserve(routes.size());
    for (uint32_t i = 0; i < routes.size(); ++i) {
        tree_loc.select(routes[i].prefix, candidate(i % 32));
        model_loc.select(routes[i].prefix, candidate(i % 32));
    }
    ASSERT_EQ(tree_loc.size(), model_loc.best.size());

    std::vector<net::Prefix> tree_order, model_order;
    tree_order.reserve(tree_loc.size());
    model_order.reserve(model_loc.best.size());
    tree_loc.forEach([&](const net::Prefix &p,
                         const bgp::LocRib::Entry &) {
        tree_order.push_back(p);
    });
    for (const auto &[p, c] : model_loc.best)
        model_order.push_back(p);
    ASSERT_EQ(tree_order.size(), model_order.size());
    ASSERT_TRUE(tree_order == model_order);
    for (size_t i = 1; i < tree_order.size(); ++i)
        ASSERT_TRUE(tree_order[i - 1] < tree_order[i]);

    // And a second, independently built tree over the same routes in
    // a different insertion order lands on the same sequence.
    bgp::SharedPrefixTable table2;
    bgp::LocRib tree2(table2);
    for (size_t i = routes.size(); i-- > 0;)
        tree2.select(routes[i].prefix, candidate(uint32_t(i % 32)));
    std::vector<net::Prefix> tree2_order;
    tree2_order.reserve(tree2.size());
    tree2.forEach([&](const net::Prefix &p,
                      const bgp::LocRib::Entry &) {
        tree2_order.push_back(p);
    });
    ASSERT_TRUE(tree2_order == tree_order);
}
