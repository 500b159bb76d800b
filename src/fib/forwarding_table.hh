/**
 * @file
 * The Forwarding Information Base (FIB): the table the data plane
 * consults, as distinct from the BGP Loc-RIB (paper section III.A:
 * "Loc-RIB is different from the forwarding table used by the
 * router's forwarding engine").
 *
 * Entries live in a net::PrefixTree, the arena tree the RIBs use, so
 * an install allocates nothing per prefix beyond the arena's amortised
 * growth. Lookups report the node count a unibit trie over the same
 * routes would visit, which the simulated routers charge per packet.
 */

#ifndef BGPBENCH_FIB_FORWARDING_TABLE_HH
#define BGPBENCH_FIB_FORWARDING_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4_address.hh"
#include "net/prefix.hh"
#include "net/prefix_tree.hh"

namespace bgpbench::fib
{

/** One FIB entry: where packets for a prefix are sent. */
struct FibEntry
{
    net::Ipv4Address nextHop;
    /** Outgoing interface index. */
    uint32_t interface = 0;
    /**
     * ECMP next hops beyond the primary (maximum-paths > 1), in the
     * control plane's deterministic group order. The forwarding
     * engine spreads flows across {nextHop} ∪ extraHops by flow
     * hash; empty in single-path mode.
     */
    std::vector<net::Ipv4Address> extraHops;
};

/** Lifetime counters of a forwarding table. */
struct FibCounters
{
    uint64_t installs = 0;
    uint64_t replaces = 0;
    uint64_t removes = 0;
    uint64_t lookups = 0;
    uint64_t lookupMisses = 0;
};

/**
 * The forwarding table: a longest-prefix-match tree plus the
 * write-side bookkeeping the control plane performs.
 *
 * Real kernels serialise route updates against lookups with a lock or
 * RCU-style generation counters; the simulated router charges a lock
 * hold time per write, which is what produces the paper's Figure 6(c)
 * forwarding dip while a large table is being installed. This class
 * only counts the writes; the timing lives in the simulator.
 */
class ForwardingTable
{
  public:
    /**
     * Install or replace the route for @p prefix.
     * @return True if this was a new prefix (install), false if it
     *         replaced an existing entry.
     */
    bool install(const net::Prefix &prefix, FibEntry entry);

    /**
     * Remove the route for @p prefix.
     * @return True if the prefix was present.
     */
    bool remove(const net::Prefix &prefix);

    /**
     * Longest-prefix-match lookup.
     *
     * @param addr Destination address.
     * @param visited Optional out-parameter: the nodes a unibit trie
     *        over the installed routes would visit
     *        (net::PrefixTree::matchLongest()).
     * @return The entry, or nullptr if the destination is unroutable.
     */
    const FibEntry *lookup(net::Ipv4Address addr,
                           int *visited = nullptr);

    /** Exact-match query (management plane / tests). */
    const FibEntry *exact(const net::Prefix &prefix) const;

    size_t size() const { return tree_.size(); }
    const FibCounters &counters() const { return counters_; }

  private:
    net::PrefixTree<FibEntry> tree_;
    FibCounters counters_;
};

} // namespace bgpbench::fib

#endif // BGPBENCH_FIB_FORWARDING_TABLE_HH
