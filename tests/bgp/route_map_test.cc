/**
 * @file
 * Tests for the native route-map surface of the policy engine: named
 * prefix-lists with ge/le bounds (compiled vs linear oracle),
 * route-map first-match / continue semantics, and the copy-on-write
 * contract of set-action application.
 */

#include <algorithm>
#include <random>
#include <string>

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

net::Prefix
pfx(const char *s)
{
    return net::Prefix::fromString(s);
}

Policy
mapPolicy(RouteMap map)
{
    return Policy(std::make_shared<const RouteMap>(std::move(map)));
}

/** A prefix-list permitting @p covering and all its more-specifics. */
std::shared_ptr<const PrefixList>
coveredBy(const char *covering)
{
    auto list = std::make_shared<PrefixList>(covering);
    list->add(5, true, pfx(covering), std::nullopt, 32);
    return list;
}

} // namespace

// ---------------------------------------------------------------------------
// PrefixList: ge/le bound resolution and seq ordering.

TEST(PrefixList, ExactLengthWithoutBounds)
{
    PrefixList pl("exact");
    pl.add(5, true, pfx("10.0.0.0/16"));
    // Only routes of exactly the entry's length match.
    EXPECT_EQ(pl.evaluate(pfx("10.0.0.0/16")), ListMatch::Permit);
    EXPECT_EQ(pl.evaluate(pfx("10.0.0.0/24")), ListMatch::NoMatch);
    EXPECT_EQ(pl.evaluate(pfx("10.0.0.0/8")), ListMatch::NoMatch);
    // A /16 elsewhere is not covered at all.
    EXPECT_EQ(pl.evaluate(pfx("11.0.0.0/16")), ListMatch::NoMatch);
}

TEST(PrefixList, GeAloneExtendsToHostRoutes)
{
    PrefixList pl;
    pl.add(5, true, pfx("10.0.0.0/8"), 24);
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.0/24")), ListMatch::Permit);
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.3/32")), ListMatch::Permit);
    // Below the ge bound — including the entry's own length.
    EXPECT_EQ(pl.evaluate(pfx("10.1.0.0/23")), ListMatch::NoMatch);
    EXPECT_EQ(pl.evaluate(pfx("10.0.0.0/8")), ListMatch::NoMatch);
}

TEST(PrefixList, LeAloneStartsAtEntryLength)
{
    PrefixList pl;
    pl.add(5, true, pfx("10.0.0.0/8"), std::nullopt, 24);
    EXPECT_EQ(pl.evaluate(pfx("10.0.0.0/8")), ListMatch::Permit);
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.0/24")), ListMatch::Permit);
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.0/25")), ListMatch::NoMatch);
}

TEST(PrefixList, GeAndLeBracketTheRange)
{
    PrefixList pl;
    pl.add(5, true, pfx("10.0.0.0/8"), 16, 24);
    EXPECT_EQ(pl.evaluate(pfx("10.0.0.0/8")), ListMatch::NoMatch);
    EXPECT_EQ(pl.evaluate(pfx("10.1.0.0/16")), ListMatch::Permit);
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.0/24")), ListMatch::Permit);
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.128/25")), ListMatch::NoMatch);
}

TEST(PrefixList, LowestSeqWinsRegardlessOfInsertionOrder)
{
    PrefixList pl;
    // Inserted out of seq order: the seq-5 deny must still win even
    // though the permit entry was added first.
    pl.add(10, true, pfx("10.0.0.0/8"), std::nullopt, 32);
    pl.add(5, false, pfx("10.1.0.0/16"), std::nullopt, 32);
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.0/24")), ListMatch::Deny);
    EXPECT_EQ(pl.evaluate(pfx("10.2.0.0/24")), ListMatch::Permit);
}

TEST(PrefixList, MoreSpecificEntryDoesNotShadowLowerSeq)
{
    PrefixList pl;
    // The covering /8 permit has the lower seq; the more specific
    // /16 deny must not shadow it (seq order, not specificity).
    pl.add(5, true, pfx("10.0.0.0/8"), std::nullopt, 32);
    pl.add(10, false, pfx("10.1.0.0/16"), std::nullopt, 32);
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.0/24")), ListMatch::Permit);
}

TEST(PrefixList, ReAddedSeqReplacesItsEntry)
{
    PrefixList pl;
    pl.add(5, false, pfx("10.1.0.0/16"), std::nullopt, 32);
    pl.add(5, true, pfx("10.0.0.0/8"), std::nullopt, 32);
    // One entry per seq: the later add replaced the deny.
    ASSERT_EQ(pl.size(), 1u);
    EXPECT_TRUE(pl.entries().front().permit);
    EXPECT_EQ(pl.entries().front().prefix, pfx("10.0.0.0/8"));
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.0/24")), ListMatch::Permit);
    EXPECT_EQ(pl.evaluateLinear(pfx("10.1.2.0/24")), ListMatch::Permit);

    // The replaced entry's prefix no longer matches anything of its
    // own: the trie forgot it.
    pl.add(5, true, pfx("192.168.0.0/16"));
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.0/24")), ListMatch::NoMatch);
    EXPECT_EQ(pl.evaluate(pfx("192.168.0.0/16")), ListMatch::Permit);

    // Other seqs keep their order around the replaced one.
    pl.add(10, false, pfx("10.0.0.0/8"), std::nullopt, 32);
    pl.add(1, false, pfx("192.168.0.0/16"));
    pl.add(5, true, pfx("10.0.0.0/8"), std::nullopt, 32);
    ASSERT_EQ(pl.size(), 3u);
    EXPECT_EQ(pl.entries()[0].seq, 1u);
    EXPECT_EQ(pl.entries()[1].seq, 5u);
    EXPECT_EQ(pl.entries()[2].seq, 10u);
    EXPECT_EQ(pl.evaluate(pfx("10.1.2.0/24")), ListMatch::Permit);
    EXPECT_EQ(pl.evaluate(pfx("192.168.0.0/16")), ListMatch::Deny);
}

TEST(PrefixList, CompiledLookupMatchesLinearOracle)
{
    // Property test: the trie-compiled evaluate() must agree with the
    // reference linear scan on every probe, for deterministic
    // pseudo-random lists with overlapping entries and varied bounds.
    // Seqs come from a set of 16, so most adds re-add a seq.
    std::mt19937 rng(20260807);
    for (int trial = 0; trial < 20; ++trial) {
        PrefixList pl("fuzz");
        for (uint32_t i = 0; i < 50; ++i) {
            int len = int(rng() % 25); // 0..24
            uint32_t addr = rng();
            net::Prefix p(net::Ipv4Address(addr), len);
            std::optional<int> ge, le;
            switch (rng() % 4) {
            case 1:
                ge = len + int(rng() % (33 - len));
                break;
            case 2:
                le = len + int(rng() % (33 - len));
                break;
            case 3:
                ge = len + int(rng() % (33 - len));
                le = *ge + int(rng() % (33 - *ge));
                break;
            default:
                break;
            }
            uint32_t seq = 5 * (rng() % 16);
            pl.add(seq, rng() % 3 != 0, p, ge, le);
        }
        for (int probe = 0; probe < 200; ++probe) {
            int len = int(rng() % 33);
            net::Prefix p(net::Ipv4Address(uint32_t(rng())), len);
            ASSERT_EQ(pl.evaluate(p), pl.evaluateLinear(p))
                << "trial " << trial << " probe " << p.toString();
        }
    }
}

// ---------------------------------------------------------------------------
// RouteMap semantics: first-match, deny, implicit deny, continue.

TEST(RouteMap, FirstMatchingEntryDecidesBySeq)
{
    RouteMap map("rm");
    RouteMapEntry low;
    low.seq = 10;
    low.set.localPref = 300;
    RouteMapEntry high;
    high.seq = 20;
    high.set.localPref = 100;
    map.add(high); // inserted out of order on purpose
    map.add(low);

    auto out = mapPolicy(std::move(map)).apply(pfx("10.0.0.0/24"),
                                               attrs({100}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->localPref, 300u);
}

TEST(RouteMap, MatchingDenyRejectsImmediately)
{
    RouteMap map("rm");
    RouteMapEntry deny;
    deny.seq = 10;
    deny.permit = false;
    deny.match.asPathContains = 666;
    RouteMapEntry permit;
    permit.seq = 20;
    map.add(deny).add(permit);
    Policy policy = mapPolicy(std::move(map));

    EXPECT_EQ(policy.apply(pfx("10.0.0.0/24"), attrs({666})), nullptr);
    EXPECT_NE(policy.apply(pfx("10.0.0.0/24"), attrs({100})), nullptr);
}

TEST(RouteMap, NativeMapHasImplicitDeny)
{
    RouteMap map("rm");
    RouteMapEntry entry;
    entry.prefixList = coveredBy("192.168.0.0/16");
    map.add(entry);
    Policy policy = mapPolicy(std::move(map));

    // Route matching no entry is dropped, Quagga-style.
    EXPECT_EQ(policy.apply(pfx("10.0.0.0/24"), attrs({100})), nullptr);
    EXPECT_NE(policy.apply(pfx("192.168.1.0/24"), attrs({100})),
              nullptr);
}

TEST(RouteMap, CatchAllEntryAcceptsUnmodified)
{
    // A trailing entry with no clauses and no set-actions turns the
    // implicit deny into accept-the-rest, pointer-identical.
    RouteMap map("filter");
    RouteMapEntry entry;
    entry.permit = false;
    entry.prefixList = coveredBy("192.168.0.0/16");
    RouteMapEntry rest;
    rest.seq = 20;
    map.add(entry).add(rest);
    Policy policy = mapPolicy(std::move(map));

    auto in = attrs({100});
    EXPECT_EQ(policy.apply(pfx("10.0.0.0/24"), in), in);
    EXPECT_EQ(policy.apply(pfx("192.168.1.0/24"), in), nullptr);
}

TEST(RouteMap, NamedListMustPermitForEntryToMatch)
{
    auto pl = std::make_shared<PrefixList>("pl");
    pl->add(5, false, pfx("10.1.0.0/16"), std::nullopt, 32);
    pl->add(10, true, pfx("10.0.0.0/8"), std::nullopt, 32);

    RouteMap map("rm");
    RouteMapEntry entry;
    entry.prefixList = pl;
    entry.set.localPref = 200;
    map.add(entry);
    Policy policy = mapPolicy(std::move(map));

    // Denied by the list -> the entry does not match -> implicit deny.
    EXPECT_EQ(policy.apply(pfx("10.1.2.0/24"), attrs({1})), nullptr);
    // Permitted by the list -> the entry matches and sets.
    auto out = policy.apply(pfx("10.2.0.0/24"), attrs({1}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->localPref, 200u);
    // Not covered by the list at all -> no match -> implicit deny.
    EXPECT_EQ(policy.apply(pfx("11.0.0.0/24"), attrs({1})), nullptr);
}

TEST(RouteMap, ContinueAccumulatesSetActions)
{
    RouteMap map("rm");
    RouteMapEntry first;
    first.seq = 10;
    first.set.localPref = 250;
    first.continueTo = 0; // resume at the next entry
    RouteMapEntry second;
    second.seq = 20;
    second.set.med = 7;
    map.add(first).add(second);

    auto out = mapPolicy(std::move(map)).apply(pfx("10.0.0.0/24"),
                                               attrs({100}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->localPref, 250u);
    EXPECT_EQ(out->med, 7u);
}

TEST(RouteMap, ContinueTargetSkipsIntermediateEntries)
{
    RouteMap map("rm");
    RouteMapEntry first;
    first.seq = 10;
    first.set.localPref = 250;
    first.continueTo = 30; // jump over seq 20
    RouteMapEntry skipped;
    skipped.seq = 20;
    skipped.set.med = 99;
    RouteMapEntry landed;
    landed.seq = 30;
    landed.set.med = 7;
    map.add(first).add(skipped).add(landed);

    auto out = mapPolicy(std::move(map)).apply(pfx("10.0.0.0/24"),
                                               attrs({100}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->localPref, 250u);
    EXPECT_EQ(out->med, 7u); // seq 20's med=99 never applied
}

TEST(RouteMap, DenyMatchedWhileContinuingRejects)
{
    RouteMap map("rm");
    RouteMapEntry first;
    first.seq = 10;
    first.set.localPref = 250;
    first.continueTo = 0;
    RouteMapEntry deny;
    deny.seq = 20;
    deny.permit = false;
    map.add(first).add(deny);

    EXPECT_EQ(mapPolicy(std::move(map))
                  .apply(pfx("10.0.0.0/24"), attrs({100})),
              nullptr);
}

TEST(RouteMap, RunningOffTheEndAfterPermitAccepts)
{
    RouteMap map("rm");
    RouteMapEntry only;
    only.seq = 10;
    only.set.localPref = 250;
    only.continueTo = 500; // beyond the last entry
    map.add(only);

    auto out = mapPolicy(std::move(map)).apply(pfx("10.0.0.0/24"),
                                               attrs({100}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->localPref, 250u);
}

TEST(RouteMap, BackwardContinueIsClampedForward)
{
    // A continue target at or before the entry's own seq must not
    // loop; it is clamped to the next entry and terminates.
    RouteMap map("rm");
    RouteMapEntry first;
    first.seq = 10;
    first.set.localPref = 250;
    first.continueTo = 10; // self-referential target
    RouteMapEntry second;
    second.seq = 20;
    second.set.med = 7;
    map.add(first).add(second);

    auto out = mapPolicy(std::move(map)).apply(pfx("10.0.0.0/24"),
                                               attrs({100}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->localPref, 250u);
    EXPECT_EQ(out->med, 7u);
}

// ---------------------------------------------------------------------------
// Set-actions.

TEST(RouteMap, SetCommunityReplacesBeforeAddDelete)
{
    RouteMap map("rm");
    RouteMapEntry entry;
    entry.set.replaceCommunities = true;
    entry.set.communities = {30, 10, 20}; // unsorted on purpose
    entry.set.addCommunities = {40};
    entry.set.deleteCommunities = {20};
    map.add(entry);

    auto out = mapPolicy(std::move(map))
                   .apply(pfx("10.0.0.0/24"), attrs({1}, {7, 8}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->communities, (std::vector<uint32_t>{10, 30, 40}));
}

TEST(RouteMap, SetCommunityNoneClearsAll)
{
    RouteMap map("rm");
    RouteMapEntry entry;
    entry.set.replaceCommunities = true; // empty replacement set
    map.add(entry);

    auto out = mapPolicy(std::move(map))
                   .apply(pfx("10.0.0.0/24"), attrs({1}, {7, 8}));
    ASSERT_NE(out, nullptr);
    EXPECT_TRUE(out->communities.empty());
}

TEST(RouteMap, SetNextHopRewrites)
{
    RouteMap map("rm");
    RouteMapEntry entry;
    entry.set.nextHop = net::Ipv4Address(172, 16, 0, 1);
    map.add(entry);

    auto out = mapPolicy(std::move(map)).apply(pfx("10.0.0.0/24"),
                                               attrs({1}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->nextHop, net::Ipv4Address(172, 16, 0, 1));
}

TEST(RouteMap, PrependAppliesOnExportOnly)
{
    RouteMap map("rm");
    RouteMapEntry entry;
    entry.set.prependCount = 2;
    map.add(entry);
    Policy policy = mapPolicy(std::move(map));

    auto in = attrs({100});
    auto exported = policy.apply(pfx("10.0.0.0/24"), in, 65000);
    ASSERT_NE(exported, nullptr);
    EXPECT_EQ(exported->asPath.pathLength(), 3);
    EXPECT_EQ(exported->asPath.firstAs(), 65000);
    // Import side (prepend_as = 0): a prepend-only entry changes
    // nothing, so the original pointer survives.
    EXPECT_EQ(policy.apply(pfx("10.0.0.0/24"), in, 0), in);
}

// ---------------------------------------------------------------------------
// Copy-on-write contract and evaluation stats.

TEST(RouteMapCow, UnchangedRouteKeepsInternedPointerIdentity)
{
    // Regression: an accepted route whose set-actions do not change
    // the bundle must come back as the *same* shared pointer — the
    // export memo and the interner depend on this.
    RouteMap map("rm");
    RouteMapEntry entry;
    entry.set.localPref = 100; // matches the incoming value
    map.add(entry);
    Policy policy = mapPolicy(std::move(map));

    PathAttributes a;
    a.asPath = AsPath::sequence({100, 200});
    a.nextHop = net::Ipv4Address(10, 0, 0, 1);
    a.localPref = 100;
    auto in = makeAttributes(std::move(a));

    PolicyEvalStats stats;
    auto out = policy.apply(pfx("10.0.0.0/24"), in, 0, &stats);
    EXPECT_EQ(out.get(), in.get());
    EXPECT_EQ(stats.evals, 1u);
    EXPECT_EQ(stats.cowHits, 1u);
    EXPECT_EQ(stats.cowCopies, 0u);
    EXPECT_EQ(stats.rejects, 0u);
    EXPECT_EQ(stats.cowHitRatio(), 1.0);
}

TEST(RouteMapCow, ChangedRouteIsCopiedOnceAndReinterned)
{
    RouteMap map("rm");
    RouteMapEntry entry;
    entry.set.localPref = 250;
    map.add(entry);
    Policy policy = mapPolicy(std::move(map));

    auto in = attrs({100, 200});
    PolicyEvalStats stats;
    auto first = policy.apply(pfx("10.0.0.0/24"), in, 0, &stats);
    auto second = policy.apply(pfx("10.0.1.0/24"), in, 0, &stats);
    ASSERT_NE(first, nullptr);
    EXPECT_NE(first.get(), in.get());
    EXPECT_EQ(first->localPref, 250u);
    // Re-canonicalised through the interner: the second application
    // of the identical transformation yields the same block.
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(stats.cowCopies, 2u);
    EXPECT_EQ(stats.cowHits, 0u);
    // Original untouched.
    EXPECT_FALSE(in->localPref.has_value());
}

TEST(RouteMapCow, StatsTallyAcrossDispositions)
{
    RouteMap map("rm");
    RouteMapEntry deny;
    deny.seq = 10;
    deny.permit = false;
    deny.match.asPathContains = 666;
    RouteMapEntry touch;
    touch.seq = 20;
    touch.match.asPathContains = 777;
    touch.set.med = 9;
    RouteMapEntry pass;
    pass.seq = 30;
    map.add(deny).add(touch).add(pass);
    Policy policy = mapPolicy(std::move(map));

    PolicyEvalStats stats;
    const net::Prefix p = pfx("10.0.0.0/24");
    EXPECT_EQ(policy.apply(p, attrs({666}), 0, &stats), nullptr);
    EXPECT_NE(policy.apply(p, attrs({777}), 0, &stats), nullptr);
    auto in = attrs({100});
    EXPECT_EQ(policy.apply(p, in, 0, &stats), in);

    EXPECT_EQ(stats.evals, 3u);
    EXPECT_EQ(stats.rejects, 1u);
    EXPECT_EQ(stats.cowCopies, 1u);
    EXPECT_EQ(stats.cowHits, 1u);
    EXPECT_EQ(stats.cowHitRatio(), 0.5);
}

TEST(RouteMapCow, MatchesEvaluateAgainstOriginalAttributes)
{
    // Set-actions accumulate but matches see the *original* bundle:
    // entry 10 sets the community that entry 20 matches on — entry 20
    // must not fire.
    RouteMap map("rm");
    RouteMapEntry first;
    first.seq = 10;
    first.set.addCommunities = {42};
    first.continueTo = 0;
    RouteMapEntry second;
    second.seq = 20;
    second.match.hasCommunity = 42;
    second.set.localPref = 999;
    map.add(first).add(second);

    auto out = mapPolicy(std::move(map)).apply(pfx("10.0.0.0/24"),
                                               attrs({100}));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->communities, std::vector<uint32_t>{42});
    EXPECT_FALSE(out->localPref.has_value());
}

TEST(PolicyHandle, EmptinessReflectsMapSemantics)
{
    EXPECT_TRUE(Policy().empty());
    // A native empty map denies everything: decidedly not empty.
    Policy native = mapPolicy(RouteMap("rm"));
    EXPECT_FALSE(native.empty());
    EXPECT_EQ(native.apply(pfx("10.0.0.0/24"), attrs({1})), nullptr);
    // A lone catch-all entry accepts everything unmodified, but any
    // attached map counts as a policy.
    RouteMap pass("rm");
    pass.add(RouteMapEntry{});
    Policy catch_all = mapPolicy(std::move(pass));
    EXPECT_FALSE(catch_all.empty());
    auto in = attrs({1});
    EXPECT_EQ(catch_all.apply(pfx("10.0.0.0/24"), in), in);
    EXPECT_EQ(Policy().size(), 0u);

    RouteMap sized("rm");
    sized.add(RouteMapEntry{});
    sized.add(RouteMapEntry{});
    EXPECT_EQ(mapPolicy(std::move(sized)).size(), 2u);
}

// ---------------------------------------------------------------------------
// RouteMap::apply against a written-out reference: random maps over the
// whole route-map surface, applied to random routes on import and export.

namespace
{

/**
 * The documented first-match/continue walk, written out: calls
 * fn(entry) on each matched permit entry and returns the disposition.
 * Matches read @p attrs; the prefix-list through its linear oracle.
 */
template <typename Fn>
ListMatch
referenceWalk(const std::vector<RouteMapEntry> &entries,
              const net::Prefix &prefix, const PathAttributes &attrs,
              Fn &&fn)
{
    auto matches = [&](const RouteMapEntry &entry) {
        const PolicyMatch &m = entry.match;
        const std::vector<uint32_t> &c = attrs.communities;
        return (!entry.prefixList ||
                entry.prefixList->evaluateLinear(prefix) ==
                    ListMatch::Permit) &&
               (!m.asPathContains ||
                attrs.asPath.contains(*m.asPathContains)) &&
               (!m.originAs || attrs.asPath.originAs() == *m.originAs) &&
               (!m.hasCommunity ||
                std::find(c.begin(), c.end(), *m.hasCommunity) !=
                    c.end()) &&
               (!m.minAsPathLength ||
                attrs.asPath.pathLength() >= *m.minAsPathLength);
    };
    bool matched_permit = false;
    size_t i = 0;
    while (i < entries.size()) {
        const RouteMapEntry &entry = entries[i];
        if (!matches(entry)) {
            ++i;
            continue;
        }
        if (!entry.permit)
            return ListMatch::Deny;
        matched_permit = true;
        fn(entry);
        if (!entry.continueTo)
            return ListMatch::Permit;
        // The first entry with seq >= the target, and never this one
        // or an earlier one.
        size_t next = i + 1;
        if (*entry.continueTo != 0) {
            while (next < entries.size() &&
                   entries[next].seq < *entry.continueTo) {
                ++next;
            }
        }
        i = next;
    }
    return matched_permit ? ListMatch::Permit : ListMatch::NoMatch;
}

/**
 * Two passes: the disposition and whether any matched entry would
 * change the original bundle, then, only if one would, every matched
 * entry's set-actions applied in match order to one copy.
 */
PathAttributesPtr
referenceApply(const RouteMap &map, const net::Prefix &prefix,
               const PathAttributesPtr &attrs, AsNumber prepend_as,
               PolicyEvalStats &stats)
{
    ++stats.evals;
    bool changes = false;
    ListMatch outcome = referenceWalk(
        map.entries(), prefix, *attrs, [&](const RouteMapEntry &entry) {
            changes = changes || entry.set.wouldChange(*attrs, prepend_as);
        });
    if (outcome != ListMatch::Permit) {
        ++stats.rejects;
        return nullptr;
    }
    if (!changes) {
        ++stats.cowHits;
        return attrs;
    }
    PathAttributes out = *attrs;
    referenceWalk(map.entries(), prefix, *attrs,
                  [&](const RouteMapEntry &entry) {
                      entry.set.applyTo(out, prepend_as);
                  });
    ++stats.cowCopies;
    return makeAttributes(std::move(out));
}

class RouteMapReference : public ::testing::TestWithParam<uint32_t>
{
  protected:
    std::mt19937 rng{GetParam()};

    uint32_t below(uint32_t n) { return uint32_t(rng() % n); }
    bool chance(uint32_t n) { return below(n) == 0; }

    /** A subset of a small community pool, so matches happen. */
    std::vector<uint32_t>
    someCommunities()
    {
        std::vector<uint32_t> out;
        for (uint32_t c = 1; c <= 6; ++c)
            if (chance(3))
                out.push_back(c);
        std::shuffle(out.begin(), out.end(), rng);
        return out;
    }

    /** A prefix inside 10.0.0.0/8, of length 8..32. */
    net::Prefix
    somePrefix()
    {
        int len = 8 + int(below(25));
        return net::Prefix(
            net::Ipv4Address(0x0a000000u | (uint32_t(rng()) & 0x00ffffffu)),
            len);
    }

    net::Ipv4Address
    someNextHop()
    {
        return chance(2) ? net::Ipv4Address(10, 0, 0, 1)
                         : net::Ipv4Address(172, 16, 0, 1);
    }

    PathAttributesPtr
    someRoute()
    {
        PathAttributes a;
        std::vector<AsNumber> path(1 + below(5));
        for (AsNumber &asn : path)
            asn = 100 + below(6);
        a.asPath = AsPath::sequence(std::move(path));
        a.nextHop = someNextHop();
        if (chance(2))
            a.localPref = chance(2) ? 100 : 200;
        if (chance(2))
            a.med = below(2) * 5;
        a.communities = someCommunities();
        std::sort(a.communities.begin(), a.communities.end());
        return makeAttributes(std::move(a));
    }

    std::shared_ptr<const PrefixList>
    somePrefixList()
    {
        auto list = std::make_shared<PrefixList>("random");
        for (uint32_t n = 1 + below(3); n > 0; --n) {
            net::Prefix p(somePrefix().address(), int(below(17)));
            std::optional<int> ge, le;
            if (chance(2))
                ge = p.length() + int(below(uint32_t(33 - p.length())));
            if (chance(2))
                le = (ge ? *ge : p.length()) +
                     int(below(uint32_t(33 - (ge ? *ge : p.length()))));
            uint32_t seq = 5 * below(3);
            list->add(seq, !chance(4), p, ge, le);
        }
        return list;
    }

    RouteMapEntry
    someEntry(uint32_t max_seq)
    {
        RouteMapEntry e;
        e.seq = 10 * (1 + below(max_seq));
        e.permit = !chance(4);
        if (chance(3))
            e.prefixList = somePrefixList();
        if (chance(4))
            e.match.asPathContains = 100 + below(6);
        if (chance(4))
            e.match.originAs = 100 + below(6);
        if (chance(4))
            e.match.hasCommunity = 1 + below(6);
        if (chance(4))
            e.match.minAsPathLength = int(1 + below(5));
        if (chance(3))
            e.set.localPref = chance(2) ? 100 : 200;
        if (chance(3))
            e.set.med = below(2) * 5;
        if (chance(4))
            e.set.prependCount = int(1 + below(2));
        if (chance(4))
            e.set.nextHop = someNextHop();
        if (chance(3))
            e.set.addCommunities = someCommunities();
        if (chance(3))
            e.set.deleteCommunities = someCommunities();
        if (chance(5)) {
            e.set.replaceCommunities = true;
            e.set.communities = someCommunities();
        }
        switch (below(5)) {
        case 0:
            e.continueTo = 0; // the next entry
            break;
        case 1:
            e.continueTo = e.seq + 10 * (1 + below(3)); // later
            break;
        case 2:
            e.continueTo = 10 * below(max_seq); // earlier or itself
            break;
        default:
            break;
        }
        return e;
    }
};

} // namespace

TEST_P(RouteMapReference, ApplyMatchesTwoPassReference)
{
    uint64_t copies = 0, hits = 0, rejects = 0;
    for (int round = 0; round < 400; ++round) {
        RouteMap map("random");
        const uint32_t entries = 1 + below(8);
        for (uint32_t n = 0; n < entries; ++n)
            map.add(someEntry(entries + 2));
        for (int probe = 0; probe < 20; ++probe) {
            const net::Prefix prefix = somePrefix();
            const PathAttributesPtr in = someRoute();
            for (AsNumber prepend_as : {AsNumber(0), AsNumber(65000)}) {
                PolicyEvalStats got_stats, want_stats;
                PathAttributesPtr got =
                    map.apply(prefix, in, prepend_as, &got_stats);
                PathAttributesPtr want = referenceApply(
                    map, prefix, in, prepend_as, want_stats);
                SCOPED_TRACE("round " + std::to_string(round) +
                             " probe " + std::to_string(probe) +
                             " prepend_as " + std::to_string(prepend_as));
                ASSERT_EQ(got == nullptr, want == nullptr);
                if (want) {
                    EXPECT_EQ(*got, *want);
                    EXPECT_EQ(got.get() == in.get(),
                              want.get() == in.get());
                }
                EXPECT_EQ(got_stats.evals, want_stats.evals);
                EXPECT_EQ(got_stats.rejects, want_stats.rejects);
                EXPECT_EQ(got_stats.cowHits, want_stats.cowHits);
                EXPECT_EQ(got_stats.cowCopies, want_stats.cowCopies);
                copies += want_stats.cowCopies;
                hits += want_stats.cowHits;
                rejects += want_stats.rejects;
            }
        }
    }
    // Every outcome must be exercised, not only one.
    EXPECT_GT(copies, 0u);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(rejects, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteMapReference,
                         ::testing::Values(1u, 2u, 3u, 4u));
