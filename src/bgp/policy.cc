#include "bgp/policy.hh"

#include <algorithm>

namespace bgpbench::bgp
{

// --- PrefixList -------------------------------------------------------

PrefixList &
PrefixList::add(uint32_t seq, bool permit, const net::Prefix &prefix,
                std::optional<int> ge, std::optional<int> le)
{
    Entry entry;
    entry.seq = seq;
    entry.permit = permit;
    entry.prefix = prefix;
    // Resolve the ge/le rules once at build time (see header).
    if (ge)
        entry.minLength = *ge;
    else
        entry.minLength = prefix.length();
    if (le)
        entry.maxLength = *le;
    else if (ge)
        entry.maxLength = 32;
    else
        entry.maxLength = prefix.length();
    // An entry can never match a route it does not cover.
    entry.minLength = std::max(entry.minLength, prefix.length());

    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry.seq,
        [](uint32_t s, const Entry &e) { return s < e.seq; });
    entries_.insert(pos, entry);

    // Rebuild the trie's index vectors: insertion shifted the indexes
    // of every later entry. Build is config-time; keep it simple.
    trie_.clear();
    for (uint32_t i = 0; i < entries_.size(); ++i)
        trie_.findOrInsert(entries_[i].prefix)->push_back(i);
    return *this;
}

ListMatch
PrefixList::evaluate(const net::Prefix &prefix) const
{
    const Entry *best = nullptr;
    trie_.forEachCovering(
        prefix, [&](int, const std::vector<uint32_t> &bucket) {
            for (uint32_t index : bucket) {
                const Entry &entry = entries_[index];
                if (prefix.length() < entry.minLength ||
                    prefix.length() > entry.maxLength) {
                    continue;
                }
                if (!best || entry.seq < best->seq)
                    best = &entry;
            }
        });
    if (!best)
        return ListMatch::NoMatch;
    return best->permit ? ListMatch::Permit : ListMatch::Deny;
}

ListMatch
PrefixList::evaluateLinear(const net::Prefix &prefix) const
{
    for (const Entry &entry : entries_) {
        if (!entry.prefix.covers(prefix))
            continue;
        if (prefix.length() < entry.minLength ||
            prefix.length() > entry.maxLength) {
            continue;
        }
        return entry.permit ? ListMatch::Permit : ListMatch::Deny;
    }
    return ListMatch::NoMatch;
}

// --- AsPathSet --------------------------------------------------------

AsPathSet &
AsPathSet::add(Entry entry)
{
    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry.seq,
        [](uint32_t s, const Entry &e) { return s < e.seq; });
    entries_.insert(pos, std::move(entry));
    return *this;
}

ListMatch
AsPathSet::evaluate(const AsPath &path) const
{
    for (const Entry &entry : entries_) {
        if (entry.contains && !path.contains(*entry.contains))
            continue;
        if (entry.originAs && path.originAs() != *entry.originAs)
            continue;
        if (entry.minLength && path.pathLength() < *entry.minLength)
            continue;
        if (entry.maxLength && path.pathLength() > *entry.maxLength)
            continue;
        return entry.permit ? ListMatch::Permit : ListMatch::Deny;
    }
    return ListMatch::NoMatch;
}

// --- CommunityList ----------------------------------------------------

CommunityList &
CommunityList::add(uint32_t seq, bool permit, uint32_t community)
{
    Entry entry{seq, permit, community};
    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry.seq,
        [](uint32_t s, const Entry &e) { return s < e.seq; });
    entries_.insert(pos, entry);
    return *this;
}

ListMatch
CommunityList::evaluate(const std::vector<uint32_t> &communities) const
{
    for (const Entry &entry : entries_) {
        if (!std::binary_search(communities.begin(), communities.end(),
                                entry.community)) {
            continue;
        }
        return entry.permit ? ListMatch::Permit : ListMatch::Deny;
    }
    return ListMatch::NoMatch;
}

// --- PolicyMatch ------------------------------------------------------

bool
PolicyMatch::matches(const net::Prefix &prefix,
                     const PathAttributes &attrs) const
{
    if (prefixCoveredBy && !prefixCoveredBy->covers(prefix))
        return false;
    if (minPrefixLength && prefix.length() < *minPrefixLength)
        return false;
    if (maxPrefixLength && prefix.length() > *maxPrefixLength)
        return false;
    if (asPathContains && !attrs.asPath.contains(*asPathContains))
        return false;
    if (originAs && attrs.asPath.originAs() != *originAs)
        return false;
    if (hasCommunity &&
        !std::binary_search(attrs.communities.begin(),
                            attrs.communities.end(), *hasCommunity)) {
        return false;
    }
    if (minAsPathLength && attrs.asPath.pathLength() < *minAsPathLength)
        return false;
    return true;
}

// --- SetActions -------------------------------------------------------

bool
SetActions::empty() const
{
    return !localPref && !med && prependCount == 0 && !nextHop &&
           addCommunities.empty() && deleteCommunities.empty() &&
           !replaceCommunities;
}

bool
SetActions::wouldChange(const PathAttributes &attrs,
                        AsNumber prepend_as) const
{
    if (localPref && attrs.localPref != localPref)
        return true;
    if (med && attrs.med != med)
        return true;
    if (prependCount > 0 && prepend_as != 0)
        return true;
    if (nextHop && attrs.nextHop != *nextHop)
        return true;
    if (replaceCommunities) {
        // Replacement wins over the incoming set; add/delete below
        // then operate on the replacement, so compare the final set.
        std::vector<uint32_t> out = communities;
        for (uint32_t c : addCommunities) {
            auto pos = std::lower_bound(out.begin(), out.end(), c);
            if (pos == out.end() || *pos != c)
                out.insert(pos, c);
        }
        for (uint32_t c : deleteCommunities) {
            auto [first, last] =
                std::equal_range(out.begin(), out.end(), c);
            out.erase(first, last);
        }
        return out != attrs.communities;
    }
    for (uint32_t c : addCommunities) {
        if (!std::binary_search(attrs.communities.begin(),
                                attrs.communities.end(), c)) {
            return true;
        }
    }
    for (uint32_t c : deleteCommunities) {
        if (std::binary_search(attrs.communities.begin(),
                               attrs.communities.end(), c)) {
            return true;
        }
    }
    return false;
}

void
SetActions::applyTo(PathAttributes &attrs, AsNumber prepend_as) const
{
    if (localPref)
        attrs.localPref = *localPref;
    if (med)
        attrs.med = *med;
    if (nextHop)
        attrs.nextHop = *nextHop;
    if (replaceCommunities)
        attrs.communities = communities;
    for (uint32_t c : addCommunities) {
        auto pos = std::lower_bound(attrs.communities.begin(),
                                    attrs.communities.end(), c);
        if (pos == attrs.communities.end() || *pos != c)
            attrs.communities.insert(pos, c);
    }
    for (uint32_t c : deleteCommunities) {
        auto [first, last] =
            std::equal_range(attrs.communities.begin(),
                             attrs.communities.end(), c);
        attrs.communities.erase(first, last);
    }
    if (prepend_as != 0) {
        for (int i = 0; i < prependCount; ++i)
            attrs.asPath.prepend(prepend_as);
    }
}

// --- RouteMap ---------------------------------------------------------

bool
RouteMapEntry::matches(const net::Prefix &prefix,
                       const PathAttributes &attrs) const
{
    if (prefixList &&
        prefixList->evaluate(prefix) != ListMatch::Permit) {
        return false;
    }
    if (asPathSet &&
        asPathSet->evaluate(attrs.asPath) != ListMatch::Permit) {
        return false;
    }
    if (communityList &&
        communityList->evaluate(attrs.communities) !=
            ListMatch::Permit) {
        return false;
    }
    return match.matches(prefix, attrs);
}

RouteMap &
RouteMap::add(RouteMapEntry entry)
{
    // Canonicalise the community vectors once at build time: apply()
    // and wouldChange() binary-search them, and a replacement set is
    // adopted wholesale as the route's (sorted) community list.
    auto canon = [](std::vector<uint32_t> &v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    canon(entry.set.addCommunities);
    canon(entry.set.deleteCommunities);
    canon(entry.set.communities);
    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry.seq,
        [](uint32_t s, const RouteMapEntry &e) { return s < e.seq; });
    entries_.insert(pos, std::move(entry));
    return *this;
}

template <typename Fn>
ListMatch
RouteMap::walk(const net::Prefix &prefix, const PathAttributes &attrs,
               Fn &&fn) const
{
    bool matched_permit = false;
    size_t i = 0;
    while (i < entries_.size()) {
        const RouteMapEntry &entry = entries_[i];
        if (!entry.matches(prefix, attrs)) {
            ++i;
            continue;
        }
        if (!entry.permit)
            return ListMatch::Deny;
        matched_permit = true;
        fn(entry);
        if (!entry.continueTo)
            return ListMatch::Permit;
        if (*entry.continueTo == 0) {
            ++i;
            continue;
        }
        // Jump to the continue target, clamped strictly forward so
        // evaluation terminates even on a misconfigured backward
        // target.
        size_t next = size_t(
            std::lower_bound(
                entries_.begin(), entries_.end(), *entry.continueTo,
                [](const RouteMapEntry &e, uint32_t s) {
                    return e.seq < s;
                }) -
            entries_.begin());
        i = std::max(next, i + 1);
    }
    return matched_permit ? ListMatch::Permit : ListMatch::NoMatch;
}

PathAttributesPtr
RouteMap::apply(const net::Prefix &prefix,
                const PathAttributesPtr &attrs, AsNumber prepend_as,
                PolicyEvalStats *stats) const
{
    if (!attrs)
        return nullptr;
    if (stats)
        ++stats->evals;

    // Pass 1: disposition plus "would any accumulated set-action
    // actually change the bundle?". Matches evaluate against the
    // original attributes (see header), so this pass is pure.
    bool changes = false;
    ListMatch outcome =
        walk(prefix, *attrs, [&](const RouteMapEntry &entry) {
            if (!changes &&
                entry.set.wouldChange(*attrs, prepend_as)) {
                changes = true;
            }
        });

    if (outcome != ListMatch::Permit) {
        if (stats)
            ++stats->rejects;
        return nullptr;
    }
    if (!changes) {
        // Copy-on-write hit: the route passes through untouched and
        // keeps its interned pointer identity — no allocation.
        if (stats)
            ++stats->cowHits;
        return attrs;
    }

    // Pass 2 (only for bundles that really change): copy once, apply
    // every matched entry's set-actions in match order, and
    // re-canonicalise through the interner.
    PathAttributes out = *attrs;
    walk(prefix, *attrs, [&](const RouteMapEntry &entry) {
        entry.set.applyTo(out, prepend_as);
    });
    if (stats)
        ++stats->cowCopies;
    return makeAttributes(std::move(out));
}

// --- Policy helpers ---------------------------------------------------

namespace
{

/** The last entry of a helper map: accept the rest unmodified. */
RouteMapEntry
catchAllPermit()
{
    RouteMapEntry entry;
    entry.seq = 20;
    return entry;
}

} // namespace

Policy
makeRejectPrefixPolicy(const net::Prefix &prefix)
{
    // A deny entry matching a single-entry prefix-list that covers
    // the prefix and all its more-specifics.
    auto list = std::make_shared<PrefixList>("reject-" +
                                             prefix.toString());
    list->add(5, true, prefix, std::nullopt, 32);
    auto map =
        std::make_shared<RouteMap>("reject " + prefix.toString());
    RouteMapEntry entry;
    entry.seq = 10;
    entry.permit = false;
    entry.prefixList = std::move(list);
    map->add(std::move(entry));
    map->add(catchAllPermit());
    return Policy(std::move(map));
}

Policy
makeLocalPrefForAsPolicy(AsNumber asn, uint32_t local_pref)
{
    auto set = std::make_shared<AsPathSet>("as-" + std::to_string(asn));
    AsPathSet::Entry match;
    match.seq = 5;
    match.permit = true;
    match.contains = asn;
    set->add(match);
    auto map = std::make_shared<RouteMap>(
        "local-pref " + std::to_string(local_pref) + " for AS" +
        std::to_string(asn));
    RouteMapEntry entry;
    entry.seq = 10;
    entry.asPathSet = std::move(set);
    entry.set.localPref = local_pref;
    map->add(std::move(entry));
    map->add(catchAllPermit());
    return Policy(std::move(map));
}

} // namespace bgpbench::bgp
