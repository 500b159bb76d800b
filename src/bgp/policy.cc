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

    // One entry per seq, as in a Quagga prefix-list: re-adding a seq
    // replaces its entry.
    auto pos = std::lower_bound(
        entries_.begin(), entries_.end(), entry.seq,
        [](const Entry &e, uint32_t s) { return e.seq < s; });
    if (pos != entries_.end() && pos->seq == entry.seq)
        *pos = entry;
    else
        entries_.insert(pos, entry);

    // Rebuild the trie's index vectors: an insertion shifts the
    // indexes of every later entry, a replacement may change its
    // entry's prefix. Build is config-time; keep it simple.
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

// --- PolicyMatch ------------------------------------------------------

bool
PolicyMatch::matches(const PathAttributes &attrs) const
{
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
    return match.matches(attrs);
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

PathAttributesPtr
RouteMap::apply(const net::Prefix &prefix,
                const PathAttributesPtr &attrs, AsNumber prepend_as,
                PolicyEvalStats *stats) const
{
    if (!attrs)
        return nullptr;
    if (stats)
        ++stats->evals;

    // Matches read the original attributes (see header). The copy is
    // taken at the first matched entry that would change the bundle;
    // every matched entry from there on applies to it.
    std::optional<PathAttributes> out;
    bool accepted = false;
    size_t i = 0;
    while (i < entries_.size()) {
        const RouteMapEntry &entry = entries_[i];
        if (!entry.matches(prefix, *attrs)) {
            ++i;
            continue;
        }
        accepted = entry.permit;
        if (!accepted)
            break;
        if (!out && entry.set.wouldChange(*attrs, prepend_as))
            out.emplace(*attrs);
        if (out)
            entry.set.applyTo(*out, prepend_as);
        if (!entry.continueTo)
            break;
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

    if (!accepted) {
        if (stats)
            ++stats->rejects;
        return nullptr;
    }
    if (!out) {
        // Copy-on-write hit: the route passes through untouched and
        // keeps its interned pointer identity — no allocation.
        if (stats)
            ++stats->cowHits;
        return attrs;
    }
    if (stats)
        ++stats->cowCopies;
    return makeAttributes(std::move(*out));
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
    auto map = std::make_shared<RouteMap>(
        "local-pref " + std::to_string(local_pref) + " for AS" +
        std::to_string(asn));
    RouteMapEntry entry;
    entry.seq = 10;
    entry.match.asPathContains = asn;
    entry.set.localPref = local_pref;
    map->add(std::move(entry));
    map->add(catchAllPermit());
    return Policy(std::move(map));
}

} // namespace bgpbench::bgp
