#include "fib/forwarding_table.hh"

#include <utility>

namespace bgpbench::fib
{

bool
ForwardingTable::install(const net::Prefix &prefix, FibEntry entry)
{
    bool inserted = false;
    tree_.insert(prefix, std::move(entry), &inserted);
    if (inserted)
        ++counters_.installs;
    else
        ++counters_.replaces;
    return inserted;
}

bool
ForwardingTable::remove(const net::Prefix &prefix)
{
    bool removed = tree_.erase(prefix);
    if (removed)
        ++counters_.removes;
    return removed;
}

const FibEntry *
ForwardingTable::lookup(net::Ipv4Address addr, int *visited)
{
    ++counters_.lookups;
    const FibEntry *entry = tree_.matchLongest(addr, visited);
    if (!entry)
        ++counters_.lookupMisses;
    return entry;
}

const FibEntry *
ForwardingTable::exact(const net::Prefix &prefix) const
{
    return tree_.find(prefix);
}

} // namespace bgpbench::fib
