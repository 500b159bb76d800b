#include "bgp/decision.hh"

#include <algorithm>

#include "net/logging.hh"

namespace bgpbench::bgp
{

namespace
{

/**
 * Steps 0-5b of the tie-break ladder: every step but the final
 * router-id comparison. Zero means multipath-equivalent.
 */
int
comparePathQuality(const Candidate &a, const Candidate &b)
{
    panicIf(!a.attributes || !b.attributes,
            "decision process given a candidate without attributes");

    const PathAttributes &pa = *a.attributes;
    const PathAttributes &pb = *b.attributes;

    // 0. Locally originated routes outrank learned ones (the vendor
    //    "weight" step that precedes LOCAL_PREF).
    if (a.locallyOriginated != b.locallyOriginated)
        return a.locallyOriginated ? -1 : 1;

    // 1. Higher LOCAL_PREF wins.
    uint32_t lp_a = pa.localPref.value_or(defaultLocalPref);
    uint32_t lp_b = pb.localPref.value_or(defaultLocalPref);
    if (lp_a != lp_b)
        return lp_a > lp_b ? -1 : 1;

    // 2. Shorter AS_PATH wins.
    int len_a = pa.asPath.pathLength();
    int len_b = pb.asPath.pathLength();
    if (len_a != len_b)
        return len_a < len_b ? -1 : 1;

    // 3. Lower ORIGIN wins.
    if (pa.origin != pb.origin)
        return pa.origin < pb.origin ? -1 : 1;

    // 4. Lower MED wins, between routes from the same neighbour AS
    //    only (RFC 4271 9.1.2.2 c). Absent MED counts as 0 (the
    //    common vendor default).
    if (pa.asPath.firstAs() != 0 &&
        pa.asPath.firstAs() == pb.asPath.firstAs()) {
        uint32_t med_a = pa.med.value_or(0);
        uint32_t med_b = pb.med.value_or(0);
        if (med_a != med_b)
            return med_a < med_b ? -1 : 1;
    }

    // 5. Prefer eBGP-learned routes over iBGP-learned ones.
    if (a.externalSession != b.externalSession)
        return a.externalSession ? -1 : 1;

    // 5b. RFC 4456 section 9: shorter CLUSTER_LIST wins (fewer
    //     reflection hops).
    size_t cl_a = pa.clusterList.size();
    size_t cl_b = pb.clusterList.size();
    if (cl_a != cl_b)
        return cl_a < cl_b ? -1 : 1;

    return 0;
}

} // namespace

int
compareCandidates(const Candidate &a, const Candidate &b)
{
    if (int quality = comparePathQuality(a, b))
        return quality;

    // 6. Lowest BGP identifier, using the ORIGINATOR_ID of reflected
    //    routes in place of the peer's (RFC 4456 section 9).
    RouterId id_a = a.attributes->originatorId.value_or(a.peerRouterId);
    RouterId id_b = b.attributes->originatorId.value_or(b.peerRouterId);
    if (id_a != id_b)
        return id_a < id_b ? -1 : 1;

    return 0;
}

std::optional<size_t>
selectBest(const std::vector<Candidate> &candidates)
{
    if (candidates.empty())
        return std::nullopt;

    size_t best = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
        if (compareCandidates(candidates[i], candidates[best]) < 0)
            best = i;
    }
    return best;
}

void
selectMultipath(const std::vector<Candidate> &candidates,
                size_t maxPaths, std::vector<size_t> &group)
{
    group.clear();
    auto best = selectBest(candidates);
    if (!best)
        return;
    group.push_back(*best);
    if (maxPaths <= 1)
        return;

    for (size_t i = 0; i < candidates.size(); ++i) {
        if (i != *best &&
            comparePathQuality(candidates[i], candidates[*best]) == 0) {
            group.push_back(i);
        }
    }

    // Deterministic member order after the best: the full tie-break
    // ladder (ending in the router-id step), with the candidate index
    // as the final tiebreak for truly indistinguishable entries. The
    // candidate vector itself is built in peer-id order, so this
    // depends only on the route set. The best stays first even when
    // the conditional MED rule makes the ladder intransitive.
    std::sort(group.begin() + 1, group.end(), [&](size_t x, size_t y) {
        int cmp = compareCandidates(candidates[x], candidates[y]);
        if (cmp != 0)
            return cmp < 0;
        return x < y;
    });
    if (group.size() > maxPaths)
        group.resize(maxPaths);
}

} // namespace bgpbench::bgp
