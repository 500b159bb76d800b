#include "bgp/rib.hh"

namespace bgpbench::bgp
{

AdjRibIn::Write
AdjRibIn::update(const net::Prefix &prefix, PathAttributesPtr attrs)
{
    auto [slot, stored, inserted] = store_.obtain(prefix);
    if (!inserted && sameAttributeValue(*stored, attrs))
        return {slot, false};
    *stored = std::move(attrs);
    return {slot, true};
}

const PathAttributesPtr *
AdjRibIn::find(const net::Prefix &prefix) const
{
    return store_.find(prefix);
}

namespace
{

/** Same attributes from the same peer: the Loc-RIB's notion of an
 *  unchanged route. */
bool
sameRoute(const Candidate &a, const Candidate &b)
{
    return sameAttributeValue(a.attributes, b.attributes) &&
           a.peer == b.peer;
}

} // namespace

void
LocRib::Entry::nextHops(std::vector<net::Ipv4Address> &hops) const
{
    hops.assign(1, best.attributes->nextHop);
    for (const Candidate &member : multipath) {
        net::Ipv4Address hop = member.attributes->nextHop;
        if (std::find(hops.begin(), hops.end(), hop) == hops.end())
            hops.push_back(hop);
    }
}

LocRib::SelectOutcome
LocRib::assign(detail::RibStore<Entry>::Obtained obtained,
               std::span<const Candidate> candidates,
               std::span<const size_t> group)
{
    Entry *entry = obtained.entry;
    const Candidate &best = candidates[group.front()];
    std::span<const size_t> members = group.subspan(1);
    SelectOutcome outcome;
    outcome.bestChanged =
        obtained.inserted || !sameRoute(entry->best, best);
    bool group_changed = entry->multipath.size() != members.size();
    for (size_t i = 0; !group_changed && i < members.size(); ++i)
        group_changed =
            !sameRoute(entry->multipath[i], candidates[members[i]]);
    outcome.groupChanged = outcome.bestChanged || group_changed;
    entry->best = best;
    entry->multipath.clear();
    for (size_t member : members)
        entry->multipath.push_back(candidates[member]);
    return outcome;
}

bool
LocRib::select(const net::Prefix &prefix, Candidate best)
{
    const size_t alone[] = {0};
    return assign(store_.obtain(prefix), {&best, 1}, alone).bestChanged;
}

LocRib::SelectOutcome
LocRib::selectAt(Slot slot, std::span<const Candidate> candidates,
                 std::span<const size_t> group)
{
    return assign(store_.obtainAt(slot), candidates, group);
}

const LocRib::Entry *
LocRib::find(const net::Prefix &prefix) const
{
    return store_.find(prefix);
}

} // namespace bgpbench::bgp
