/**
 * @file
 * The route types shared by the RIBs, the decision process and the
 * speaker: decision candidates and forwarding-table changes.
 */

#ifndef BGPBENCH_BGP_ROUTE_HH
#define BGPBENCH_BGP_ROUTE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/path_attributes.hh"
#include "net/ipv4_address.hh"
#include "net/prefix.hh"

namespace bgpbench::bgp
{

/** Identifies one configured peer of a speaker. */
using PeerId = uint32_t;

/**
 * A candidate in the decision process: attributes plus the facts about
 * the peer the route was learned from that tie-breaking needs.
 */
struct Candidate
{
    PathAttributesPtr attributes;
    PeerId peer = 0;
    RouterId peerRouterId = 0;
    /** True if learned over an external (inter-AS) session. */
    bool externalSession = true;
    /**
     * True for routes this speaker originated itself (injected from
     * configuration or an IGP). Like vendor "weight", these take
     * precedence over any learned route.
     */
    bool locallyOriginated = false;
};

/**
 * A forwarding-table change emitted by the speaker: install/replace
 * when nextHop is set, remove when empty.
 */
struct FibUpdate
{
    net::Prefix prefix;
    std::optional<net::Ipv4Address> nextHop;
    /**
     * The route's next-hop list (LocRib::Entry::nextHops) after its
     * first entry, nextHop: the ECMP group members' distinct hops in
     * group order. Empty whenever the group is the best path alone,
     * which it always is with maximum-paths 1.
     */
    std::vector<net::Ipv4Address> extraHops;

    bool isWithdraw() const { return !nextHop.has_value(); }
};

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_ROUTE_HH
