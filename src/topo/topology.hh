/**
 * @file
 * AS-level topology model for multi-router simulation.
 *
 * A Topology is a static description of a network: nodes are BGP
 * routers (each with its own AS number, router id, address, and a
 * SystemProfile cost model that paces its control-plane processing),
 * and links are point-to-point adjacencies with latency, bandwidth,
 * and optional per-endpoint import/export policies. A link between
 * two nodes in the same AS carries an iBGP session; different ASes
 * make it eBGP — exactly the rule BgpSpeaker applies to its peers.
 *
 * The paper benchmarks one router between two test speakers; this
 * model is what lets the same protocol engine be instantiated N times
 * and wired into network shapes so that update-processing speed can
 * be studied where it matters operationally: network-wide
 * convergence. Generators cover the standard shapes (line, ring,
 * star, full mesh) plus Barabási–Albert preferential attachment as a
 * stand-in for AS-graph-like degree distributions.
 */

#ifndef BGPBENCH_TOPO_TOPOLOGY_HH
#define BGPBENCH_TOPO_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bgp/policy.hh"
#include "bgp/types.hh"
#include "net/ipv4_address.hh"
#include "router/system_profiles.hh"
#include "sim/time.hh"

namespace bgpbench::topo
{

/** One router in the topology. */
struct NodeConfig
{
    /** Label used in reports ("r0", "backbone", ...). */
    std::string name;
    bgp::AsNumber asn = 0;
    bgp::RouterId routerId = 0;
    /** Address installed as NEXT_HOP on eBGP advertisements. */
    net::Ipv4Address address;
    /**
     * Cost model pacing this router's control plane: message parse,
     * per-prefix decision, and serialisation-gate costs are charged
     * in virtual time before inbound messages are processed.
     */
    router::SystemProfile profile;
};

/** One endpoint of a link, with its session policies. */
struct LinkEnd
{
    size_t node = 0;
    /** Import policy this endpoint applies to routes from the peer. */
    bgp::Policy importPolicy;
    /** Export policy this endpoint applies toward the peer. */
    bgp::Policy exportPolicy;
};

/** A point-to-point link between two routers. */
struct Link
{
    LinkEnd a;
    LinkEnd b;
    /** One-way propagation delay. */
    sim::SimTime latencyNs = sim::nsFromMs(1);
    /** Serialisation rate; <= 0 disables the serialisation delay. */
    double bandwidthMbps = 100.0;
};

/** Shared parameters for the topology generators. */
struct GenOptions
{
    sim::SimTime latencyNs = sim::nsFromMs(1);
    double bandwidthMbps = 100.0;
    /** Cost model applied to every generated node. */
    router::SystemProfile profile = router::xeonProfile();
    /** AS number of node 0; node i gets firstAs + i (one AS each). */
    bgp::AsNumber firstAs = 100;
};

/**
 * Options for the 5-stage Clos datacenter generator (RFC 7938-style
 * eBGP fabric: tor -> agg -> spine -> agg -> tor).
 *
 * AS numbering follows the RFC 7938 section 5.2 scheme: all spines
 * share one AS (base.firstAs), the aggregation switches of one pod
 * share a per-pod AS, and every ToR gets its own AS — which is what
 * makes the pod-internal and spine-level path sets equal-length and
 * thus ECMP-eligible under maximum-paths. Every session accepts and
 * exports routes unmodified.
 */
struct ClosOptions
{
    size_t pods = 2;
    size_t torsPerPod = 2;
    size_t aggsPerPod = 2;
    size_t spines = 2;
    GenOptions base;
};

/**
 * An AS-level topology: an undirected multigraph of router nodes.
 *
 * The class is a passive description; TopologySim instantiates the
 * speakers and the event-queue plumbing from it.
 */
class Topology
{
  public:
    /** Neighbour record: the link index and the node on its far end. */
    struct Adjacent
    {
        size_t link;
        size_t node;
    };

    /** Add a router. @return Its node index. */
    size_t addNode(NodeConfig config);

    /** Add a link. Self-loops and unknown node indexes are fatal. */
    size_t addLink(Link link);

    /** Convenience: a link with default policies. */
    size_t
    addLink(size_t a, size_t b, sim::SimTime latency_ns,
            double bandwidth_mbps)
    {
        Link link;
        link.a.node = a;
        link.b.node = b;
        link.latencyNs = latency_ns;
        link.bandwidthMbps = bandwidth_mbps;
        return addLink(std::move(link));
    }

    size_t nodeCount() const { return nodes_.size(); }
    size_t linkCount() const { return links_.size(); }

    const NodeConfig &node(size_t index) const;
    /** Mutable access, e.g. to give one node a different profile. */
    NodeConfig &node(size_t index);
    const Link &link(size_t index) const;

    /** Links incident to @p node. */
    const std::vector<Adjacent> &neighborsOf(size_t node) const;

    /**
     * True if @p link connects two nodes of the same AS, making the
     * session iBGP (the speaker derives the same answer from the
     * peer's configured AS).
     */
    bool isIbgp(size_t link) const;

    /**
     * True if no other node shares @p node's AS. Only such a node's
     * prefixes can reach every other node: an eBGP neighbour drops a
     * path that already carries its own AS (RFC 4271 section 9.1.2),
     * so the RFC 7938 fabric's spines and pod aggs never learn each
     * other's routes.
     */
    bool soleNodeOfAs(size_t node) const;

    /** True if every node can reach every other over the links. */
    bool connected() const;

    /**
     * The default node description the generators use: name "r<i>",
     * AS firstAs + i, router id i + 1, address 10.(i/256).(i%256).1.
     */
    static NodeConfig defaultNode(size_t index,
                                  const GenOptions &opts);

    /** @name Generators
     *  All produce connected topologies of @p n one-router ASes.
     *  @{
     */
    /** r0 - r1 - ... - r(n-1). Requires n >= 2. */
    static Topology line(size_t n, const GenOptions &opts = {});
    /** A line with the ends joined. Requires n >= 3. */
    static Topology ring(size_t n, const GenOptions &opts = {});
    /** Node 0 is the hub. Requires n >= 2. */
    static Topology star(size_t n, const GenOptions &opts = {});
    /** Every pair linked. Requires n >= 2. */
    static Topology fullMesh(size_t n, const GenOptions &opts = {});
    /**
     * Barabási–Albert-style preferential attachment: the first
     * attach_count + 1 nodes form a line, then every further node
     * links to @p attach_count distinct existing nodes chosen with
     * probability proportional to their degree. Deterministic for a
     * given @p seed. Requires n > attach_count >= 1.
     */
    static Topology barabasiAlbert(size_t n, size_t attach_count,
                                   uint64_t seed,
                                   const GenOptions &opts = {});
    /**
     * 5-stage Clos fabric (see ClosOptions). Node order: spines
     * first, then per pod its aggregation switches followed by its
     * ToRs; names are "spine<s>", "p<p>-agg<a>", "p<p>-tor<t>".
     * Every ToR links to every agg of its pod, every agg to every
     * spine. Requires at least 1 of each tier.
     */
    static Topology clos(const ClosOptions &opts = {});
    /**
     * Clos sized from a total node budget (the CLI's --shape clos):
     * 2 spines, 2 pods of 2 aggs each, and the remaining budget as
     * ToRs split across the pods. Requires n >= 8; the generated
     * node count is the largest fabric not exceeding @p n.
     */
    static Topology closFromSize(size_t n, const GenOptions &opts = {});
    /** @} */

  private:
    std::vector<NodeConfig> nodes_;
    std::vector<Link> links_;
    std::vector<std::vector<Adjacent>> adjacency_;
};

} // namespace bgpbench::topo

#endif // BGPBENCH_TOPO_TOPOLOGY_HH
