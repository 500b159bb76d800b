/**
 * @file
 * Tests for the decision process's preference order.
 */

#include <gtest/gtest.h>

#include "bgp/decision.hh"
#include "workload/rng.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

Candidate
candidate(std::vector<AsNumber> path, uint32_t peer = 1,
          RouterId router_id = 10, bool external = true)
{
    PathAttributes attrs;
    attrs.asPath = AsPath::sequence(std::move(path));
    attrs.nextHop = net::Ipv4Address(10, 0, 0, uint8_t(peer));
    return Candidate{makeAttributes(std::move(attrs)), peer,
                     router_id, external};
}

Candidate
withLocalPref(Candidate c, uint32_t lp)
{
    PathAttributes attrs = *c.attributes;
    attrs.localPref = lp;
    c.attributes = makeAttributes(std::move(attrs));
    return c;
}

Candidate
withMed(Candidate c, uint32_t med)
{
    PathAttributes attrs = *c.attributes;
    attrs.med = med;
    c.attributes = makeAttributes(std::move(attrs));
    return c;
}

Candidate
withOrigin(Candidate c, Origin origin)
{
    PathAttributes attrs = *c.attributes;
    attrs.origin = origin;
    c.attributes = makeAttributes(std::move(attrs));
    return c;
}

} // namespace

TEST(Decision, HigherLocalPrefWins)
{
    auto a = withLocalPref(candidate({100, 200, 300}), 200);
    auto b = withLocalPref(candidate({100}), 100);
    // Despite the longer path, higher LOCAL_PREF wins.
    EXPECT_LT(compareCandidates(a, b), 0);
    EXPECT_GT(compareCandidates(b, a), 0);
}

TEST(Decision, AbsentLocalPrefUsesDefault)
{
    auto a = candidate({100});                       // default 100
    auto b = withLocalPref(candidate({100, 200}), 150);
    EXPECT_GT(compareCandidates(a, b), 0); // b preferred
    // The default is 100: an explicit 100 ties it, so the shorter
    // path decides.
    auto c = withLocalPref(candidate({100, 200}), defaultLocalPref);
    EXPECT_LT(compareCandidates(a, c), 0);
}

TEST(Decision, ShorterAsPathWins)
{
    auto a = candidate({100, 200});
    auto b = candidate({100, 200, 300});
    EXPECT_LT(compareCandidates(a, b), 0);
}

TEST(Decision, AsSetCountsAsOneHop)
{
    auto a = candidate({100, 200});   // length 2
    Candidate b = candidate({100});   // 1 + set = 2
    {
        PathAttributes attrs = *b.attributes;
        attrs.asPath.addSegment(
            {AsPath::SegmentType::AsSet, {300, 400, 500}});
        b.attributes = makeAttributes(std::move(attrs));
    }
    // Equal path length: falls through to later tie-breakers
    // (equal here except peer id).
    a.peerRouterId = 1;
    b.peerRouterId = 2;
    EXPECT_LT(compareCandidates(a, b), 0);
}

TEST(Decision, LowerOriginWins)
{
    auto a = withOrigin(candidate({100}), Origin::Igp);
    auto b = withOrigin(candidate({100}, 2, 20), Origin::Incomplete);
    EXPECT_LT(compareCandidates(a, b), 0);
}

TEST(Decision, MedComparedForSameNeighborAs)
{
    auto a = withMed(candidate({100, 300}), 10);
    auto b = withMed(candidate({100, 400}, 2, 20), 5);
    // Same first AS (100): lower MED wins.
    EXPECT_GT(compareCandidates(a, b), 0);
}

TEST(Decision, MedIgnoredAcrossNeighborAses)
{
    auto a = withMed(candidate({100, 300}, 1, 10), 50);
    auto b = withMed(candidate({200, 300}, 2, 20), 5);
    // Different first AS: MED skipped; tie broken by router id.
    EXPECT_LT(compareCandidates(a, b), 0);
}

TEST(Decision, MissingMedTreatedAsZero)
{
    auto a = candidate({100, 300});              // no MED = 0
    auto b = withMed(candidate({100, 400}, 2, 20), 5);
    EXPECT_LT(compareCandidates(a, b), 0);
}

TEST(Decision, EbgpPreferredOverIbgp)
{
    auto a = candidate({100}, 1, 10, false); // iBGP
    auto b = candidate({100}, 2, 20, true);  // eBGP
    EXPECT_GT(compareCandidates(a, b), 0);
}

TEST(Decision, LowestRouterIdBreaksFinalTie)
{
    auto a = candidate({100}, 1, 42, true);
    auto b = candidate({100}, 2, 7, true);
    EXPECT_GT(compareCandidates(a, b), 0);
}

TEST(Decision, IdenticalCandidatesCompareEqual)
{
    auto a = candidate({100}, 1, 10, true);
    auto b = candidate({100}, 2, 10, true);
    EXPECT_EQ(compareCandidates(a, b), 0);
}

TEST(Decision, SelectBestEmptyReturnsNothing)
{
    EXPECT_FALSE(selectBest({}).has_value());
}

TEST(Decision, SelectBestPicksMinimum)
{
    std::vector<Candidate> candidates = {
        candidate({100, 200, 300}, 1, 10),
        candidate({100}, 2, 20),
        candidate({100, 200}, 3, 30),
    };
    auto best = selectBest(candidates);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(*best, 1u);
}

/**
 * Property: among routes from one neighbour AS the comparison is a
 * strict weak ordering. (The RFC's neighbour-AS-conditional MED rule
 * is famously NOT transitive across neighbour ASes — the root of
 * real-world MED oscillation, see ConditionalMedIsIntransitive — so
 * every path here starts with the same AS, where MED is always
 * compared.)
 */
TEST(DecisionProperty, StrictWeakOrdering)
{
    workload::Rng rng(23);
    std::vector<Candidate> pool;
    for (int i = 0; i < 24; ++i) {
        std::vector<AsNumber> path{100};
        int hops = int(rng.range(1, 4));
        for (int h = 1; h < hops; ++h)
            path.push_back(AsNumber(rng.range(100, 110)));
        Candidate c = candidate(std::move(path),
                                uint32_t(rng.range(1, 4)),
                                RouterId(rng.range(1, 4)),
                                rng.below(2) == 0);
        if (rng.below(2))
            c = withLocalPref(c, uint32_t(rng.range(50, 150)));
        if (rng.below(2))
            c = withMed(c, uint32_t(rng.range(0, 10)));
        pool.push_back(std::move(c));
    }

    for (const auto &a : pool) {
        EXPECT_EQ(compareCandidates(a, a), 0);
        for (const auto &b : pool) {
            // Antisymmetry.
            EXPECT_EQ(compareCandidates(a, b) < 0,
                      compareCandidates(b, a) > 0);
            for (const auto &c : pool) {
                // Transitivity of strict preference.
                if (compareCandidates(a, b) < 0 &&
                    compareCandidates(b, c) < 0) {
                    EXPECT_LT(compareCandidates(a, c), 0);
                }
            }
        }
    }
}

/**
 * Documenting test: the conditional MED rule (RFC 4271 9.1.2.2 c) is
 * intransitive. Three routes can form a preference cycle.
 */
TEST(Decision, ConditionalMedIsIntransitive)
{
    // a: via AS 100, MED 10, router id 30
    // b: via AS 100, MED 50, router id 10
    // c: via AS 200, no MED, router id 20
    auto a = withMed(candidate({100, 900}, 1, 30), 10);
    auto b = withMed(candidate({100, 901}, 2, 10), 50);
    auto c = candidate({200, 902}, 3, 20);

    // a beats b on MED (same neighbor AS).
    EXPECT_LT(compareCandidates(a, b), 0);
    // b beats c on router id (MED not comparable).
    EXPECT_LT(compareCandidates(b, c), 0);
    // ...but c beats a on router id: a cycle.
    EXPECT_LT(compareCandidates(c, a), 0);
}

/** Property: selectBest returns an element no other one beats. */
TEST(DecisionProperty, SelectBestIsUnbeaten)
{
    workload::Rng rng(29);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<Candidate> candidates;
        int n = int(rng.range(1, 10));
        for (int i = 0; i < n; ++i) {
            std::vector<AsNumber> path;
            int hops = int(rng.range(1, 5));
            for (int h = 0; h < hops; ++h)
                path.push_back(AsNumber(rng.range(100, 200)));
            candidates.push_back(candidate(
                std::move(path), uint32_t(i + 1),
                RouterId(rng.range(1, 100)), rng.below(2) == 0));
        }
        auto best = selectBest(candidates);
        ASSERT_TRUE(best.has_value());
        for (const auto &other : candidates) {
            EXPECT_LE(compareCandidates(candidates[*best], other), 0);
        }
    }
}

namespace
{

std::vector<size_t>
groupOf(const std::vector<Candidate> &candidates, size_t max_paths)
{
    std::vector<size_t> group;
    selectMultipath(candidates, max_paths, group);
    return group;
}

/** Four routes that tie through step 5b, router ids 40, 10, 30, 20. */
std::vector<Candidate>
fourEqualPaths()
{
    return {candidate({100, 900}, 1, 40), candidate({200, 900}, 2, 10),
            candidate({300, 900}, 3, 30), candidate({400, 900}, 4, 20)};
}

} // namespace

TEST(DecisionMultipath, EmptyCandidatesGiveEmptyGroup)
{
    std::vector<size_t> group{7};
    selectMultipath({}, 4, group);
    EXPECT_TRUE(group.empty());
}

TEST(DecisionMultipath, GroupIsBestThenAscendingRouterId)
{
    auto candidates = fourEqualPaths();
    EXPECT_EQ(groupOf(candidates, 8), (std::vector<size_t>{1, 3, 2, 0}));
    EXPECT_EQ(*selectBest(candidates), 1u);
}

TEST(DecisionMultipath, TruncatesAtMaxPaths)
{
    auto candidates = fourEqualPaths();
    EXPECT_EQ(groupOf(candidates, 2), (std::vector<size_t>{1, 3}));
    // maximum-paths 1: the group is the best path alone.
    EXPECT_EQ(groupOf(candidates, 1), std::vector<size_t>{1});
}

TEST(DecisionMultipath, RouterIdAndPeerDifferencesStayInGroup)
{
    // Same attributes but for the next hop; different peers, router
    // ids, and an ORIGINATOR_ID standing in for one router id.
    std::vector<Candidate> candidates{candidate({100, 900}, 5, 50),
                                      candidate({100, 900}, 6, 60),
                                      candidate({100, 900}, 7, 70)};
    PathAttributes reflected = *candidates[2].attributes;
    reflected.originatorId = 5;
    candidates[2].attributes = makeAttributes(std::move(reflected));
    // Index 2 reads router id 5 through its ORIGINATOR_ID.
    EXPECT_EQ(groupOf(candidates, 4), (std::vector<size_t>{2, 0, 1}));

    // Any earlier step separates: a longer path, a worse ORIGIN, an
    // iBGP session, a lower LOCAL_PREF, a longer CLUSTER_LIST.
    std::vector<Candidate> apart{candidate({100, 900}, 1, 90)};
    apart.push_back(candidate({100, 901, 902}, 2, 1));
    apart.push_back(withOrigin(candidate({100, 900}, 3, 2),
                               Origin::Incomplete));
    apart.push_back(candidate({100, 900}, 4, 3, false));
    apart.push_back(withLocalPref(candidate({100, 900}, 5, 4), 50));
    PathAttributes longer = *candidate({100, 900}, 6, 5).attributes;
    longer.clusterList = {7};
    apart.push_back(Candidate{makeAttributes(std::move(longer)), 6, 5,
                              true});
    EXPECT_EQ(groupOf(apart, 8), std::vector<size_t>{0});
}

TEST(DecisionMultipath, MedSeparatesOnlyWhenComparable)
{
    // Same neighbour AS: the lower MED wins outright, and the higher
    // one stays out of the group despite its lower router id.
    std::vector<Candidate> same_as{
        withMed(candidate({100, 900}, 1, 30), 10),
        withMed(candidate({100, 901}, 2, 10), 20)};
    EXPECT_EQ(groupOf(same_as, 4), std::vector<size_t>{0});

    // Different neighbour ASes: MED is not compared, so the routes
    // tie through step 5b and group by router id.
    std::vector<Candidate> other_as{
        withMed(candidate({100, 900}, 1, 30), 10),
        withMed(candidate({200, 900}, 2, 20), 50)};
    EXPECT_EQ(groupOf(other_as, 4), (std::vector<size_t>{1, 0}));
}

TEST(DecisionMultipath, LocalBestNeverGroupedWithLearned)
{
    std::vector<Candidate> candidates{candidate({100, 900}, 1, 10),
                                      candidate({100, 900}, 2, 20)};
    Candidate local = candidate({100, 900}, 3, 30);
    local.locallyOriginated = true;
    local.externalSession = false;
    candidates.push_back(local);
    EXPECT_EQ(groupOf(candidates, 4), std::vector<size_t>{2});
}

TEST(DecisionMultipath, IntransitiveMedKeepsBestFirst)
{
    // The ConditionalMedIsIntransitive cycle plus the route that
    // selectBest settles on: every other route ties it through step
    // 5b, but two of them are ordered by MED among themselves.
    auto a = withMed(candidate({100, 900}, 1, 30), 10);
    auto b = withMed(candidate({100, 901}, 2, 10), 50);
    auto c = candidate({200, 902}, 3, 20);
    std::vector<Candidate> candidates{a, b, c};
    ASSERT_EQ(*selectBest(candidates), 2u);
    EXPECT_EQ(groupOf(candidates, 4), (std::vector<size_t>{2, 0, 1}));
}

/**
 * Property: the group is the best path first, then only candidates
 * that tie it through step 5b, judged by an independent field-by-field
 * check; no more than maxPaths of them, and every tying candidate
 * when fewer.
 */
TEST(DecisionMultipathProperty, MembersTieBestThroughStep5b)
{
    workload::Rng rng(41);
    for (int trial = 0; trial < 400; ++trial) {
        size_t max_paths = size_t(rng.range(1, 5));
        std::vector<Candidate> candidates;
        int n = int(rng.range(0, 9));
        for (int i = 0; i < n; ++i) {
            // Narrow value ranges so ties at every step are common.
            std::vector<AsNumber> path{AsNumber(rng.range(100, 102))};
            if (rng.below(2))
                path.push_back(AsNumber(rng.range(200, 300)));
            Candidate c = candidate(std::move(path), uint32_t(i + 1),
                                    RouterId(rng.range(1, 6)),
                                    rng.below(4) != 0);
            PathAttributes attrs = *c.attributes;
            if (rng.below(2))
                attrs.localPref = uint32_t(rng.range(99, 101));
            if (rng.below(2))
                attrs.med = uint32_t(rng.range(0, 2));
            if (rng.below(4) == 0)
                attrs.origin = Origin::Egp;
            if (rng.below(4) == 0)
                attrs.clusterList = {9};
            c.attributes = makeAttributes(std::move(attrs));
            c.locallyOriginated = rng.below(8) == 0;
            candidates.push_back(std::move(c));
        }

        auto ties = [&](const Candidate &x, const Candidate &y) {
            const PathAttributes &px = *x.attributes;
            const PathAttributes &py = *y.attributes;
            bool med_compared = px.asPath.firstAs() == py.asPath.firstAs();
            return x.locallyOriginated == y.locallyOriginated &&
                   px.localPref.value_or(100) ==
                       py.localPref.value_or(100) &&
                   px.asPath.pathLength() == py.asPath.pathLength() &&
                   px.origin == py.origin &&
                   (!med_compared ||
                    px.med.value_or(0) == py.med.value_or(0)) &&
                   x.externalSession == y.externalSession &&
                   px.clusterList.size() == py.clusterList.size();
        };

        std::vector<size_t> group = groupOf(candidates, max_paths);
        ASSERT_EQ(group.empty(), candidates.empty());
        if (group.empty())
            continue;
        ASSERT_EQ(group.front(), *selectBest(candidates));
        ASSERT_LE(group.size(), max_paths);
        const Candidate &best = candidates[group.front()];
        size_t tying = 0;
        for (size_t i = 0; i < candidates.size(); ++i) {
            size_t in_group =
                size_t(std::count(group.begin(), group.end(), i));
            ASSERT_LE(in_group, 1u);
            if (in_group) {
                EXPECT_TRUE(ties(candidates[i], best))
                    << "trial " << trial << " member " << i;
            }
            tying += ties(candidates[i], best);
        }
        EXPECT_EQ(group.size(), std::min(tying, max_paths))
            << "trial " << trial;
    }
}
