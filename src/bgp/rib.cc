#include "bgp/rib.hh"

namespace bgpbench::bgp
{

bool
AdjRibIn::update(const net::Prefix &prefix, PathAttributesPtr received,
                 PathAttributesPtr effective)
{
    auto [entry, inserted] = store_.obtain(prefix);
    if (!inserted &&
        sameAttributeValue(entry->received, received) &&
        sameAttributeValue(entry->effective, effective)) {
        return false;
    }
    entry->received = std::move(received);
    entry->effective = std::move(effective);
    return true;
}

bool
AdjRibIn::withdraw(const net::Prefix &prefix)
{
    return store_.erase(prefix);
}

const AdjRibIn::Entry *
AdjRibIn::find(const net::Prefix &prefix) const
{
    return store_.find(prefix);
}

bool
LocRib::select(const net::Prefix &prefix, Candidate best)
{
    return select(prefix, std::move(best), {}).bestChanged;
}

LocRib::SelectOutcome
LocRib::select(const net::Prefix &prefix, Candidate best,
               std::vector<Candidate> multipath)
{
    auto [entry, inserted] = store_.obtain(prefix);
    SelectOutcome outcome;
    outcome.bestChanged =
        inserted ||
        !sameAttributeValue(entry->best.attributes,
                            best.attributes) ||
        entry->best.peer != best.peer;
    bool group_changed = entry->multipath.size() != multipath.size();
    for (size_t i = 0; !group_changed && i < multipath.size(); ++i) {
        group_changed =
            !sameAttributeValue(entry->multipath[i].attributes,
                                multipath[i].attributes) ||
            entry->multipath[i].peer != multipath[i].peer;
    }
    outcome.groupChanged = outcome.bestChanged || group_changed;
    entry->best = std::move(best);
    entry->multipath = std::move(multipath);
    return outcome;
}

bool
LocRib::remove(const net::Prefix &prefix)
{
    return store_.erase(prefix);
}

const LocRib::Entry *
LocRib::find(const net::Prefix &prefix) const
{
    return store_.find(prefix);
}

bool
AdjRibOut::assign(std::pair<PathAttributesPtr *, bool> entry,
                  PathAttributesPtr attrs)
{
    auto [stored, inserted] = entry;
    if (!inserted && sameAttributeValue(*stored, attrs))
        return false;
    *stored = std::move(attrs);
    return true;
}

bool
AdjRibOut::advertise(const net::Prefix &prefix, PathAttributesPtr attrs)
{
    return assign(store_.obtain(prefix), std::move(attrs));
}

bool
AdjRibOut::advertiseAt(Slot slot, PathAttributesPtr attrs)
{
    return assign(store_.obtainAt(slot), std::move(attrs));
}

bool
AdjRibOut::withdraw(const net::Prefix &prefix)
{
    return store_.erase(prefix);
}

const PathAttributesPtr *
AdjRibOut::find(const net::Prefix &prefix) const
{
    return store_.find(prefix);
}

} // namespace bgpbench::bgp
