#include "bgp/rib.hh"

namespace bgpbench::bgp
{

AdjRibIn::Write
AdjRibIn::update(const net::Prefix &prefix, PathAttributesPtr received,
                 PathAttributesPtr effective)
{
    auto [slot, entry, inserted] = store_.obtain(prefix);
    Write write{slot, true, false};
    if (!inserted) {
        bool same_received = sameAttributeValue(entry->received, received);
        write.attributeChange = entry->received && !same_received;
        if (same_received &&
            sameAttributeValue(entry->effective, effective)) {
            write.changed = false;
            return write;
        }
    }
    entry->received = std::move(received);
    entry->effective = std::move(effective);
    return write;
}

const AdjRibIn::Entry *
AdjRibIn::find(const net::Prefix &prefix) const
{
    return store_.find(prefix);
}

LocRib::SelectOutcome
LocRib::assign(detail::RibStore<Entry>::Obtained obtained, Candidate best,
               std::vector<Candidate> multipath)
{
    Entry *entry = obtained.entry;
    SelectOutcome outcome;
    outcome.bestChanged =
        obtained.inserted ||
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
LocRib::select(const net::Prefix &prefix, Candidate best)
{
    return assign(store_.obtain(prefix), std::move(best), {})
        .bestChanged;
}

LocRib::SelectOutcome
LocRib::selectAt(Slot slot, Candidate best,
                 std::vector<Candidate> multipath)
{
    return assign(store_.obtainAt(slot), std::move(best),
                  std::move(multipath));
}

const LocRib::Entry *
LocRib::find(const net::Prefix &prefix) const
{
    return store_.find(prefix);
}

bool
AdjRibOut::assign(detail::RibStore<PathAttributesPtr>::Obtained obtained,
                  PathAttributesPtr attrs)
{
    if (!obtained.inserted && sameAttributeValue(*obtained.entry, attrs))
        return false;
    *obtained.entry = std::move(attrs);
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
    return store_.erase(prefix) != SharedPrefixTable::npos;
}

const PathAttributesPtr *
AdjRibOut::find(const net::Prefix &prefix) const
{
    return store_.find(prefix);
}

} // namespace bgpbench::bgp
