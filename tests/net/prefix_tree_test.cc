/**
 * @file
 * Tests of net::PrefixTree: the path-compressed radix trie behind the
 * shared RIB prefix table, the FIB, snapshot indexes and prefix-lists.
 * Unit cases pin the structural invariants (compression,
 * splice-on-erase, free-list reuse, ordered iteration), the
 * unibit-depth count of matchLongest() and when the direct-indexed
 * root exists; the randomized cases lockstep the tree against
 * std::map and a linear-scan LPM oracle, below and past the root's
 * threshold.
 */

#include <algorithm>
#include <bit>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "net/prefix.hh"
#include "net/prefix_tree.hh"
#include "workload/rng.hh"

using namespace bgpbench;

namespace
{

net::Prefix
pfx(const std::string &text)
{
    return net::Prefix::fromString(text);
}

net::Ipv4Address
addr(const std::string &text)
{
    return net::Ipv4Address::fromString(text);
}

/** All (prefix, value) pairs in iteration order. */
std::vector<std::pair<net::Prefix, int>>
collect(const net::PrefixTree<int> &tree)
{
    std::vector<std::pair<net::Prefix, int>> out;
    tree.forEach([&](const net::Prefix &prefix, int value) {
        out.emplace_back(prefix, value);
    });
    return out;
}

/** A deterministic pseudo-random prefix, /0../32 with mixed lengths. */
net::Prefix
randomPrefix(workload::Rng &rng)
{
    int length = int(rng.below(33));
    return net::Prefix(net::Ipv4Address(uint32_t(rng.next())), length);
}

/**
 * Trivially correct linear-scan LPM: the oracle the tree's lookups,
 * covering walks and unibit-depth counts are checked against.
 */
template <typename Value>
class LinearLpm
{
  public:
    bool
    insert(const net::Prefix &prefix, Value value)
    {
        for (auto &[p, v] : entries_) {
            if (p == prefix) {
                v = std::move(value);
                return false;
            }
        }
        entries_.emplace_back(prefix, std::move(value));
        return true;
    }

    bool
    remove(const net::Prefix &prefix)
    {
        for (size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].first == prefix) {
                entries_.erase(entries_.begin() + ptrdiff_t(i));
                return true;
            }
        }
        return false;
    }

    const Value *
    find(const net::Prefix &prefix) const
    {
        for (const auto &[p, v] : entries_) {
            if (p == prefix)
                return &v;
        }
        return nullptr;
    }

    const Value *
    lookup(net::Ipv4Address a) const
    {
        const Value *best = nullptr;
        int best_len = -1;
        for (const auto &[p, v] : entries_) {
            if (p.contains(a) && p.length() > best_len) {
                best = &v;
                best_len = p.length();
            }
        }
        return best;
    }

    /**
     * Nodes a unibit trie over the stored keys visits for @p a: the
     * root plus one per bit while some key still continues that way,
     * i.e. 1 + max over keys of min(length, common prefix with a).
     */
    int
    unibitVisited(net::Ipv4Address a) const
    {
        int depth = 0;
        for (const auto &[p, v] : entries_) {
            const uint32_t diff = p.address().toUint32() ^ a.toUint32();
            const int common = diff == 0 ? 32 : std::countl_zero(diff);
            depth = std::max(depth, std::min(p.length(), common));
        }
        return depth + 1;
    }

    /** (length, value) of every key covering @p prefix, shortest first. */
    std::vector<std::pair<int, Value>>
    covering(const net::Prefix &prefix) const
    {
        std::vector<std::pair<int, Value>> out;
        for (const auto &[p, v] : entries_) {
            if (p.covers(prefix))
                out.emplace_back(p.length(), v);
        }
        std::sort(out.begin(), out.end(),
                  [](const auto &x, const auto &y) {
                      return x.first < y.first;
                  });
        return out;
    }

    size_t size() const { return entries_.size(); }

  private:
    std::vector<std::pair<net::Prefix, Value>> entries_;
};

/** A route record the tree points into but does not own. */
struct RouteView
{
    net::Prefix prefix;
    int tag = 0;
};

} // namespace

TEST(PrefixTree, InsertFindErase)
{
    net::PrefixTree<int> tree;
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.find(pfx("10.0.0.0/8")), nullptr);

    bool inserted = false;
    tree.insert(pfx("10.0.0.0/8"), 1, &inserted);
    EXPECT_TRUE(inserted);
    tree.insert(pfx("10.1.0.0/16"), 2);
    tree.insert(pfx("192.168.4.0/24"), 3);
    EXPECT_EQ(tree.size(), 3u);

    ASSERT_NE(tree.find(pfx("10.0.0.0/8")), nullptr);
    EXPECT_EQ(*tree.find(pfx("10.0.0.0/8")), 1);
    EXPECT_EQ(*tree.find(pfx("10.1.0.0/16")), 2);
    EXPECT_EQ(*tree.find(pfx("192.168.4.0/24")), 3);
    // Same address, different length: distinct keys.
    EXPECT_EQ(tree.find(pfx("10.0.0.0/16")), nullptr);

    EXPECT_TRUE(tree.erase(pfx("10.1.0.0/16")));
    EXPECT_FALSE(tree.erase(pfx("10.1.0.0/16")));
    EXPECT_EQ(tree.find(pfx("10.1.0.0/16")), nullptr);
    EXPECT_EQ(tree.size(), 2u);
}

TEST(PrefixTree, InsertReplacesFindOrInsertKeeps)
{
    net::PrefixTree<int> tree;
    tree.insert(pfx("10.0.0.0/8"), 1);
    bool inserted = true;
    tree.insert(pfx("10.0.0.0/8"), 2, &inserted);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*tree.find(pfx("10.0.0.0/8")), 2);

    int *value = tree.findOrInsert(pfx("10.0.0.0/8"), &inserted);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*value, 2);

    value = tree.findOrInsert(pfx("10.0.0.0/12"), &inserted);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, 0); // default-constructed on miss
    EXPECT_EQ(tree.size(), 2u);
}

TEST(PrefixTree, RootAndHostRoutes)
{
    net::PrefixTree<int> tree;
    tree.insert(pfx("0.0.0.0/0"), 7);
    tree.insert(pfx("255.255.255.255/32"), 8);
    tree.insert(pfx("0.0.0.0/32"), 9);
    EXPECT_EQ(tree.size(), 3u);
    EXPECT_EQ(*tree.find(pfx("0.0.0.0/0")), 7);
    EXPECT_EQ(*tree.find(pfx("255.255.255.255/32")), 8);
    EXPECT_EQ(*tree.find(pfx("0.0.0.0/32")), 9);

    EXPECT_TRUE(tree.erase(pfx("0.0.0.0/0")));
    EXPECT_EQ(tree.find(pfx("0.0.0.0/0")), nullptr);
    EXPECT_EQ(*tree.find(pfx("0.0.0.0/32")), 9);
}

TEST(PrefixTree, PathCompressionBoundsNodes)
{
    // A /32 under an /8 must not expand one node per bit: the
    // invariant caps live nodes at 2 * size + 1 (root included).
    net::PrefixTree<int> tree;
    tree.insert(pfx("10.0.0.0/8"), 1);
    tree.insert(pfx("10.1.2.3/32"), 2);
    tree.insert(pfx("10.1.2.4/32"), 3);
    EXPECT_LE(tree.nodeCount(), 2 * tree.size() + 1);

    workload::Rng rng(11);
    for (int i = 0; i < 2000; ++i)
        tree.insert(randomPrefix(rng), i);
    EXPECT_LE(tree.nodeCount(), 2 * tree.size() + 1);
}

TEST(PrefixTree, ErasePrunesJointsAndReusesNodes)
{
    net::PrefixTree<int> tree;
    // 10.0.0.0/9 and 10.128.0.0/9 diverge under a valueless /8 joint.
    tree.insert(pfx("10.0.0.0/9"), 1);
    tree.insert(pfx("10.128.0.0/9"), 2);
    const size_t joint_nodes = tree.nodeCount();
    EXPECT_EQ(joint_nodes, 4u); // root + joint + two leaves

    // Removing one leaf must also splice the now single-child joint.
    EXPECT_TRUE(tree.erase(pfx("10.0.0.0/9")));
    EXPECT_EQ(tree.nodeCount(), 2u);
    EXPECT_EQ(*tree.find(pfx("10.128.0.0/9")), 2);

    // Reinserting reuses freed arena slots: node count returns to the
    // joint shape without growing the arena footprint.
    const size_t bytes = tree.memoryBytes();
    tree.insert(pfx("10.0.0.0/9"), 3);
    EXPECT_EQ(tree.nodeCount(), joint_nodes);
    EXPECT_EQ(tree.memoryBytes(), bytes);
}

TEST(PrefixTree, ForEachVisitsInPrefixOrder)
{
    net::PrefixTree<int> tree;
    std::map<net::Prefix, int> reference;
    workload::Rng rng(42);
    for (int i = 0; i < 5000; ++i) {
        net::Prefix prefix = randomPrefix(rng);
        tree.insert(prefix, i);
        reference[prefix] = i;
    }
    auto rows = collect(tree);
    ASSERT_EQ(rows.size(), reference.size());
    // std::map iterates in Prefix::operator< order; the tree's
    // pre-order walk must match it exactly, duplicates and all.
    size_t i = 0;
    for (const auto &[prefix, value] : reference) {
        EXPECT_EQ(rows[i].first, prefix);
        EXPECT_EQ(rows[i].second, value);
        ++i;
    }
}

TEST(PrefixTree, RandomizedLockstepAgainstMap)
{
    net::PrefixTree<int> tree;
    std::map<net::Prefix, int> reference;
    workload::Rng rng(7);

    // Mixed inserts, replaces, and erases; prefixes are drawn from a
    // small pool so operations collide often.
    std::vector<net::Prefix> pool;
    for (int i = 0; i < 300; ++i)
        pool.push_back(randomPrefix(rng));

    for (int op = 0; op < 20000; ++op) {
        const net::Prefix &prefix = pool[rng.below(pool.size())];
        if (rng.below(3) == 0) {
            EXPECT_EQ(tree.erase(prefix), reference.erase(prefix) > 0);
        } else {
            bool inserted = false;
            tree.insert(prefix, op, &inserted);
            EXPECT_EQ(inserted, reference.find(prefix) == reference.end());
            reference[prefix] = op;
        }
        if (op % 1000 == 0) {
            ASSERT_EQ(tree.size(), reference.size());
            ASSERT_LE(tree.nodeCount(), 2 * tree.size() + 1);
        }
    }

    ASSERT_EQ(tree.size(), reference.size());
    for (const auto &[prefix, value] : reference) {
        const int *stored = tree.find(prefix);
        ASSERT_NE(stored, nullptr);
        EXPECT_EQ(*stored, value);
    }
    auto rows = collect(tree);
    ASSERT_EQ(rows.size(), reference.size());
    EXPECT_TRUE(std::is_sorted(
        rows.begin(), rows.end(),
        [](const auto &a, const auto &b) { return a.first < b.first; }));
}

TEST(PrefixTree, MatchLongestAgainstLinearReference)
{
    net::PrefixTree<int> tree;
    LinearLpm<int> reference;
    workload::Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        // Short-biased lengths so addresses actually match something.
        int length = int(rng.below(25));
        net::Prefix prefix(net::Ipv4Address(uint32_t(rng.next())),
                           length);
        tree.insert(prefix, i);
        reference.insert(prefix, i);
    }

    for (int i = 0; i < 5000; ++i) {
        net::Ipv4Address a(uint32_t(rng.next()));
        const int *got = tree.matchLongest(a);
        const int *expect = reference.lookup(a);
        ASSERT_EQ(got != nullptr, expect != nullptr);
        if (got) {
            EXPECT_EQ(*got, *expect);
        }
    }

    // Specific covering chain: most-specific stored prefix wins.
    net::PrefixTree<int> chain;
    chain.insert(pfx("0.0.0.0/0"), 0);
    chain.insert(pfx("10.0.0.0/8"), 8);
    chain.insert(pfx("10.1.0.0/16"), 16);
    chain.insert(pfx("10.1.2.0/24"), 24);
    EXPECT_EQ(*chain.matchLongest(addr("10.1.2.3")), 24);
    EXPECT_EQ(*chain.matchLongest(addr("10.1.9.9")), 16);
    EXPECT_EQ(*chain.matchLongest(addr("10.9.9.9")), 8);
    EXPECT_EQ(*chain.matchLongest(addr("11.0.0.1")), 0);
    chain.erase(pfx("10.1.2.0/24"));
    EXPECT_EQ(*chain.matchLongest(addr("10.1.2.3")), 16);
}

TEST(PrefixTree, ClearKeepsCapacityAndResets)
{
    net::PrefixTree<int> tree;
    workload::Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        tree.insert(randomPrefix(rng), i);
    const size_t bytes = tree.memoryBytes();
    tree.clear();
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.nodeCount(), 1u); // the root survives
    EXPECT_EQ(tree.memoryBytes(), bytes);
    EXPECT_EQ(tree.find(pfx("10.0.0.0/8")), nullptr);
    tree.insert(pfx("10.0.0.0/8"), 1);
    EXPECT_EQ(tree.size(), 1u);
}

TEST(PrefixTree, ForEachRoundTrip)
{
    net::PrefixTree<int> tree;
    std::vector<std::pair<net::Prefix, int>> inserted = {
        {pfx("10.0.0.0/8"), 1},
        {pfx("10.128.0.0/9"), 2},
        {pfx("192.168.1.0/24"), 3},
        {net::Prefix(), 4},
    };
    for (const auto &[p, v] : inserted)
        tree.insert(p, v);

    auto entries = collect(tree);
    ASSERT_EQ(entries.size(), inserted.size());
    for (const auto &[p, v] : inserted) {
        bool found = false;
        for (const auto &[ep, ev] : entries)
            found = found || (ep == p && ev == v);
        EXPECT_TRUE(found) << p.toString();
    }
}

TEST(PrefixTree, NonOwningPointerValues)
{
    // The index pattern: an immutable route array plus a tree of
    // pointers into it. The tree never copies or frees the records.
    const RouteView routes[] = {
        {pfx("0.0.0.0/0"), 100},
        {pfx("172.16.0.0/12"), 200},
        {pfx("172.16.5.0/24"), 300},
    };
    net::PrefixTree<const RouteView *> tree;
    for (const RouteView &route : routes)
        tree.insert(route.prefix, &route);
    EXPECT_EQ(tree.size(), 3u);

    const RouteView *const *hit = tree.matchLongest(addr("172.16.5.9"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, &routes[2]);
    EXPECT_EQ((*hit)->tag, 300);

    hit = tree.matchLongest(addr("172.17.0.1"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ((*hit)->tag, 200);

    hit = tree.matchLongest(addr("8.8.8.8"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ((*hit)->tag, 100);

    // forEach walks every stored (prefix, value) pair.
    size_t entries = 0;
    tree.forEach([&](const net::Prefix &, const RouteView *) {
        ++entries;
    });
    EXPECT_EQ(entries, 3u);
}

TEST(PrefixTree, MatchLongestReportsUnibitDepth)
{
    net::PrefixTree<int> tree;
    int visited = 0;
    // An empty tree still visits the root.
    EXPECT_EQ(tree.matchLongest(addr("10.1.2.3"), &visited), nullptr);
    EXPECT_EQ(visited, 1);

    tree.insert(pfx("10.0.0.0/8"), 8);
    tree.insert(pfx("10.1.2.0/24"), 24);
    tree.insert(pfx("10.1.2.3/32"), 32);

    // Stops at a host route: 32 bits deep.
    EXPECT_EQ(*tree.matchLongest(addr("10.1.2.3"), &visited), 32);
    EXPECT_EQ(visited, 33);
    // No child that way below the /24: the /24's own length.
    EXPECT_EQ(*tree.matchLongest(addr("10.1.2.200"), &visited), 24);
    EXPECT_EQ(visited, 25);
    // 10.1.3.x leaves 10.1.2.0/24's label at bit 23.
    EXPECT_EQ(*tree.matchLongest(addr("10.1.3.1"), &visited), 8);
    EXPECT_EQ(visited, 24);
    // 11.x leaves 10/8's label at bit 7 and matches nothing.
    EXPECT_EQ(tree.matchLongest(addr("11.0.0.1"), &visited), nullptr);
    EXPECT_EQ(visited, 8);
}

TEST(PrefixTree, ForEachCoveringWalksRootFirst)
{
    net::PrefixTree<int> tree;
    tree.insert(pfx("0.0.0.0/0"), 0);
    tree.insert(pfx("10.0.0.0/8"), 8);
    tree.insert(pfx("10.1.0.0/16"), 16);
    tree.insert(pfx("10.1.2.0/24"), 24);
    tree.insert(pfx("10.2.0.0/16"), 99); // a sibling, never covering

    auto covering = [&](const std::string &text) {
        std::vector<std::pair<int, int>> out;
        tree.forEachCovering(pfx(text), [&](int length, int value) {
            out.emplace_back(length, value);
        });
        return out;
    };
    using Chain = std::vector<std::pair<int, int>>;
    EXPECT_EQ(covering("10.1.2.0/24"),
              (Chain{{0, 0}, {8, 8}, {16, 16}, {24, 24}}));
    // Equal length counts as covering; longer stored keys do not.
    EXPECT_EQ(covering("10.1.0.0/16"), (Chain{{0, 0}, {8, 8}, {16, 16}}));
    EXPECT_EQ(covering("10.1.128.0/17"),
              (Chain{{0, 0}, {8, 8}, {16, 16}}));
    EXPECT_EQ(covering("10.0.0.0/7"), (Chain{{0, 0}}));
    EXPECT_EQ(covering("192.168.0.0/16"), (Chain{{0, 0}}));

    tree.erase(pfx("0.0.0.0/0"));
    EXPECT_EQ(covering("11.0.0.0/8"), Chain{});
}

/**
 * Property suite: random insert/erase/lookup traces agree with the
 * linear-scan oracle at every step, on the matched value, on the
 * unibit-depth count, and on the covering chain.
 */
class PrefixTreeOracleTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PrefixTreeOracleTest, MatchesLinearOracle)
{
    workload::Rng rng(GetParam());
    net::PrefixTree<uint32_t> tree;
    LinearLpm<uint32_t> oracle;
    std::vector<net::Prefix> pool;

    // A probe near an existing prefix, to hit interesting boundaries,
    // or anywhere.
    auto probeAddress = [&]() {
        if (!pool.empty() && rng.below(2)) {
            const net::Prefix &p = pool[rng.below(pool.size())];
            return net::Ipv4Address(p.address().toUint32() |
                                    uint32_t(rng.next() & 0xff));
        }
        return net::Ipv4Address(uint32_t(rng.next()));
    };

    for (int step = 0; step < 1500; ++step) {
        int action = int(rng.below(10));
        if (action < 5 || pool.empty()) {
            // Insert: cluster prefixes to force shared paths.
            uint32_t base = uint32_t(rng.below(4)) << 30;
            net::Prefix p(net::Ipv4Address(base | uint32_t(rng.next() &
                                                           0x3fffffff)),
                          int(rng.range(4, 32)));
            uint32_t value = uint32_t(rng.next());
            bool inserted = false;
            tree.insert(p, value, &inserted);
            EXPECT_EQ(inserted, oracle.insert(p, value));
            pool.push_back(p);
        } else if (action < 7) {
            net::Prefix p = pool[rng.below(pool.size())];
            EXPECT_EQ(tree.erase(p), oracle.remove(p));
        }
        ASSERT_EQ(tree.size(), oracle.size());

        const net::Ipv4Address probe = probeAddress();
        int visited = 0;
        const uint32_t *got = tree.matchLongest(probe, &visited);
        const uint32_t *want = oracle.lookup(probe);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "step " << step << " probe " << probe.toString();
        if (got) {
            EXPECT_EQ(*got, *want);
        }
        EXPECT_EQ(visited, oracle.unibitVisited(probe))
            << "step " << step << " probe " << probe.toString();

        const net::Prefix range(probeAddress(), int(rng.below(33)));
        std::vector<std::pair<int, uint32_t>> chain;
        tree.forEachCovering(range, [&](int length, uint32_t value) {
            chain.emplace_back(length, value);
        });
        EXPECT_EQ(chain, oracle.covering(range))
            << "step " << step << " range " << range.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTreeOracleTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(PrefixTree, RootExistsOnlyPastThreshold)
{
    using Tree = net::PrefixTree<uint32_t>;
    constexpr size_t rootBytes = (size_t(1) << 16) * 2 * sizeof(uint32_t);
    // One /24 in each of the first rootMinKeys /16s.
    auto key = [](size_t i) {
        return net::Prefix(net::Ipv4Address(uint32_t(i) << 16), 24);
    };

    Tree tree;
    tree.reserve(Tree::rootMinKeys - 1);
    const size_t arenaBytes = tree.memoryBytes();
    for (size_t i = 0; i + 1 < Tree::rootMinKeys; ++i)
        tree.insert(key(i), uint32_t(i));
    // Never reached the threshold: the reserved arena is all it holds,
    // and every find() walks from node 0.
    EXPECT_EQ(tree.memoryBytes(), arenaBytes);
    const size_t fromNode0 = tree.descentNodes();

    tree.insert(key(Tree::rootMinKeys - 1), 0);
    const size_t withRoot = tree.memoryBytes();
    EXPECT_GE(withRoot, arenaBytes + rootBytes);
    // Each /24 is alone in its /16, so find() starts right above it.
    EXPECT_LT(tree.descentNodes(), fromNode0);
    EXPECT_LE(tree.descentNodes(), 2 * tree.size());

    // Draining keeps the root down to rootDropKeys...
    size_t next = Tree::rootMinKeys;
    while (tree.size() > Tree::rootDropKeys)
        ASSERT_TRUE(tree.erase(key(--next)));
    EXPECT_EQ(tree.memoryBytes(), withRoot);
    // ...and drops it below that.
    ASSERT_TRUE(tree.erase(key(--next)));
    EXPECT_EQ(tree.memoryBytes() + rootBytes, withRoot);
    for (size_t i = 0; i < next; ++i) {
        const uint32_t *value = tree.find(key(i));
        ASSERT_NE(value, nullptr);
        EXPECT_EQ(*value, uint32_t(i));
    }
}

TEST(PrefixTree, DescentNodesCountsFindWalks)
{
    // Below the threshold every find() starts at node 0: the count is
    // each key's depth plus one.
    net::PrefixTree<int> tree;
    EXPECT_EQ(tree.descentNodes(), 0u);
    tree.insert(pfx("0.0.0.0/0"), 0);    // node 0: 1
    tree.insert(pfx("10.0.0.0/8"), 8);   // 2
    tree.insert(pfx("10.1.0.0/16"), 16); // 3
    // Two /24s below a valueless /23 joint: 5 each.
    tree.insert(pfx("10.1.2.0/24"), 24);
    tree.insert(pfx("10.1.3.0/24"), 25);
    EXPECT_EQ(tree.descentNodes(), 1u + 2 + 3 + 5 + 5);
}

/**
 * Past rootMinKeys the tree keeps its direct-indexed root. Each seed
 * preloads twice that many keys, a third of them /0../16 so that
 * values and joints sit at and above the root's level, the rest
 * clustered in a few thousand /16s; runs mixed insert, erase and
 * lookup steps against the oracle; drains the tree below the point
 * where the root is dropped; and refills it past the threshold.
 */
class PrefixTreeRootOracleTest
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PrefixTreeRootOracleTest, MatchesLinearOracleAcrossRootLifetime)
{
    using Tree = net::PrefixTree<uint32_t>;
    workload::Rng rng(GetParam());
    Tree tree;
    LinearLpm<uint32_t> oracle;
    std::vector<net::Prefix> keys; // every key inserted, maybe erased

    std::vector<uint32_t> slash16s;
    for (int i = 0; i < 3000; ++i)
        slash16s.push_back(uint32_t(rng.next()) & 0xffff0000u);
    auto randomKey = [&]() {
        const uint32_t low = uint32_t(rng.next());
        if (rng.below(3) == 0)
            return net::Prefix(net::Ipv4Address(low), int(rng.below(17)));
        const uint32_t high = slash16s[rng.below(slash16s.size())];
        return net::Prefix(net::Ipv4Address(high | (low & 0xffff)),
                           int(rng.range(16, 32)));
    };
    auto insertKey = [&]() {
        const net::Prefix p = randomKey();
        const uint32_t value = uint32_t(rng.next());
        bool inserted = false;
        tree.insert(p, value, &inserted);
        EXPECT_EQ(inserted, oracle.insert(p, value)) << p.toString();
        keys.push_back(p);
    };
    auto eraseKey = [&]() {
        const net::Prefix p = keys[rng.below(keys.size())];
        EXPECT_EQ(tree.erase(p), oracle.remove(p)) << p.toString();
    };
    auto probeAddress = [&]() {
        const net::Prefix &p = keys[rng.below(keys.size())];
        return net::Ipv4Address(p.address().toUint32() |
                                (uint32_t(rng.next()) & 0x1ff));
    };
    auto check = [&](const char *phase, int step) {
        ASSERT_EQ(tree.size(), oracle.size()) << phase << " " << step;
        ASSERT_LE(tree.nodeCount(), 2 * tree.size() + 1);

        const net::Ipv4Address probe = probeAddress();
        int visited = 0;
        const uint32_t *got = tree.matchLongest(probe, &visited);
        const uint32_t *want = oracle.lookup(probe);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << phase << " " << step << " probe " << probe.toString();
        if (got) {
            EXPECT_EQ(*got, *want) << phase << " " << step;
        }
        EXPECT_EQ(visited, oracle.unibitVisited(probe))
            << phase << " " << step << " probe " << probe.toString();

        const net::Prefix key = keys[rng.below(keys.size())];
        const uint32_t *found = tree.find(key);
        const uint32_t *expected = oracle.find(key);
        ASSERT_EQ(found == nullptr, expected == nullptr)
            << phase << " " << step << " key " << key.toString();
        if (found) {
            EXPECT_EQ(*found, *expected);
        }

        const net::Prefix range(probeAddress(), int(rng.below(33)));
        std::vector<std::pair<int, uint32_t>> chain;
        tree.forEachCovering(range, [&](int length, uint32_t value) {
            chain.emplace_back(length, value);
        });
        EXPECT_EQ(chain, oracle.covering(range))
            << phase << " " << step << " range " << range.toString();
    };

    for (int step = 0; tree.size() < 2 * Tree::rootMinKeys; ++step) {
        insertKey();
        if (step % 64 == 0)
            check("preload", step);
    }
    const size_t preloadDescent = tree.descentNodes();
    EXPECT_LT(preloadDescent, 6 * tree.size()); // starts below node 0

    for (int step = 0; step < 1500; ++step) {
        const int action = int(rng.below(10));
        if (action < 5)
            insertKey();
        else if (action < 8)
            eraseKey();
        check("mixed", step);
    }

    // Drain below rootDropKeys, where the root goes.
    std::vector<net::Prefix> live;
    tree.forEach([&](const net::Prefix &p, uint32_t) { live.push_back(p); });
    for (size_t i = live.size(); i > 1; --i)
        std::swap(live[i - 1], live[rng.below(i)]);
    for (int step = 0; tree.size() >= Tree::rootDropKeys / 2; ++step) {
        ASSERT_TRUE(tree.erase(live.back()));
        ASSERT_TRUE(oracle.remove(live.back()));
        live.pop_back();
        if (step % 8 == 0)
            check("drain", step);
    }

    // Refill past the threshold, which builds the root again.
    for (int step = 0; tree.size() < 2 * Tree::rootMinKeys; ++step) {
        insertKey();
        if (step % 8 == 0)
            check("refill", step);
    }
    for (int step = 0; step < 500; ++step) {
        if (rng.below(2))
            eraseKey();
        else
            insertKey();
        check("churn", step);
    }

    // Every key the oracle holds is found with its value.
    std::vector<std::pair<net::Prefix, uint32_t>> rows;
    tree.forEach([&](const net::Prefix &p, uint32_t v) {
        rows.emplace_back(p, v);
    });
    ASSERT_EQ(rows.size(), oracle.size());
    for (const auto &[p, v] : rows) {
        const uint32_t *want = oracle.find(p);
        ASSERT_NE(want, nullptr) << p.toString();
        EXPECT_EQ(v, *want);
        ASSERT_NE(tree.find(p), nullptr);
        EXPECT_EQ(*tree.find(p), v);
    }

    // The tree's shape and each /16's deepest covering node depend on
    // the key set alone, so the descent count of the churned tree must
    // equal that of trees loaded in key order and in reverse.
    Tree ascending;
    Tree descending;
    for (size_t i = 0; i < rows.size(); ++i) {
        ascending.insert(rows[i].first, rows[i].second);
        descending.insert(rows[rows.size() - 1 - i].first, 0);
    }
    EXPECT_EQ(tree.nodeCount(), ascending.nodeCount());
    EXPECT_EQ(tree.descentNodes(), ascending.descentNodes());
    EXPECT_EQ(tree.descentNodes(), descending.descentNodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTreeRootOracleTest,
                         ::testing::Values(101, 202, 303, 404));
