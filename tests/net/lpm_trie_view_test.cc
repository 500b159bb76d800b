/**
 * @file
 * Tests of the generic net::LpmTrie over non-owning route views: the
 * trie stores indexes/pointers into an immutable route array instead
 * of owning routes, which is how RIB snapshots index their tables.
 */

#include <gtest/gtest.h>

#include "net/lpm_trie.hh"
#include "net/prefix.hh"

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

/** A route record the trie points into but does not own. */
struct RouteView
{
    net::Prefix prefix;
    int tag = 0;
};

} // namespace

TEST(LpmTrieView, DefaultRouteCatchesEverything)
{
    net::LpmTrie<int> trie;
    trie.insert(pfx("0.0.0.0/0"), 1);
    trie.insert(pfx("10.0.0.0/8"), 2);

    const int *hit = trie.lookup(addr("192.168.1.1"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 1);

    hit = trie.lookup(addr("10.1.2.3"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 2);

    // Removing the default exposes true misses again.
    EXPECT_TRUE(trie.remove(pfx("0.0.0.0/0")));
    EXPECT_EQ(trie.lookup(addr("192.168.1.1")), nullptr);
}

TEST(LpmTrieView, ExactMatchDistinguishesLengths)
{
    net::LpmTrie<int> trie;
    trie.insert(pfx("10.0.0.0/8"), 8);
    trie.insert(pfx("10.0.0.0/16"), 16);
    trie.insert(pfx("10.0.0.0/24"), 24);

    const int *exact = trie.exact(pfx("10.0.0.0/16"));
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(*exact, 16);

    // Same address, unregistered length: exact() must miss even
    // though lookup() would match a shorter covering prefix.
    EXPECT_EQ(trie.exact(pfx("10.0.0.0/20")), nullptr);
    EXPECT_EQ(trie.exact(pfx("11.0.0.0/8")), nullptr);
}

TEST(LpmTrieView, NestedPrefixShadowing)
{
    net::LpmTrie<int> trie;
    trie.insert(pfx("10.0.0.0/8"), 8);
    trie.insert(pfx("10.1.0.0/16"), 16);
    trie.insert(pfx("10.1.1.0/24"), 24);

    // The most specific covering prefix wins at each depth.
    EXPECT_EQ(*trie.lookup(addr("10.1.1.7")), 24);
    EXPECT_EQ(*trie.lookup(addr("10.1.2.7")), 16);
    EXPECT_EQ(*trie.lookup(addr("10.2.0.1")), 8);

    // Removing the middle prefix re-exposes the /8 for its range
    // without touching the deeper /24.
    EXPECT_TRUE(trie.remove(pfx("10.1.0.0/16")));
    EXPECT_EQ(*trie.lookup(addr("10.1.2.7")), 8);
    EXPECT_EQ(*trie.lookup(addr("10.1.1.7")), 24);
}

TEST(LpmTrieView, NonOwningPointerValues)
{
    // The snapshot pattern: an immutable route array plus a trie of
    // pointers into it. The trie never copies or frees the records.
    const RouteView routes[] = {
        {pfx("0.0.0.0/0"), 100},
        {pfx("172.16.0.0/12"), 200},
        {pfx("172.16.5.0/24"), 300},
    };
    net::LpmTrie<const RouteView *> trie;
    for (const RouteView &route : routes)
        trie.insert(route.prefix, &route);
    EXPECT_EQ(trie.size(), 3u);

    const RouteView *const *hit = trie.lookup(addr("172.16.5.9"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, &routes[2]);
    EXPECT_EQ((*hit)->tag, 300);

    hit = trie.lookup(addr("172.17.0.1"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ((*hit)->tag, 200);

    hit = trie.lookup(addr("8.8.8.8"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ((*hit)->tag, 100);

    // entries() walks every stored (prefix, value) pair.
    auto entries = trie.entries();
    EXPECT_EQ(entries.size(), 3u);
}
