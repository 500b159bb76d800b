#include "topo/topology.hh"

#include <queue>

#include "net/logging.hh"
#include "workload/rng.hh"

namespace bgpbench::topo
{

size_t
Topology::addNode(NodeConfig config)
{
    if (config.asn == 0)
        fatal("topology node with AS 0");
    if (config.routerId == 0)
        fatal("topology node with router-id 0");
    if (config.name.empty())
        config.name = "r" + std::to_string(nodes_.size());
    nodes_.push_back(std::move(config));
    adjacency_.emplace_back();
    return nodes_.size() - 1;
}

size_t
Topology::addLink(Link link)
{
    if (link.a.node >= nodes_.size() || link.b.node >= nodes_.size())
        fatal("link references unknown node");
    if (link.a.node == link.b.node)
        fatal("self-loop link on node " + std::to_string(link.a.node));
    size_t index = links_.size();
    adjacency_[link.a.node].push_back({index, link.b.node});
    adjacency_[link.b.node].push_back({index, link.a.node});
    links_.push_back(std::move(link));
    return index;
}

const NodeConfig &
Topology::node(size_t index) const
{
    if (index >= nodes_.size())
        fatal("unknown node index " + std::to_string(index));
    return nodes_[index];
}

NodeConfig &
Topology::node(size_t index)
{
    if (index >= nodes_.size())
        fatal("unknown node index " + std::to_string(index));
    return nodes_[index];
}

const Link &
Topology::link(size_t index) const
{
    if (index >= links_.size())
        fatal("unknown link index " + std::to_string(index));
    return links_[index];
}

const std::vector<Topology::Adjacent> &
Topology::neighborsOf(size_t node) const
{
    if (node >= nodes_.size())
        fatal("unknown node index " + std::to_string(node));
    return adjacency_[node];
}

bool
Topology::isIbgp(size_t index) const
{
    const Link &l = link(index);
    return nodes_[l.a.node].asn == nodes_[l.b.node].asn;
}

bool
Topology::soleNodeOfAs(size_t index) const
{
    bgp::AsNumber asn = node(index).asn;
    for (size_t other = 0; other < nodes_.size(); ++other) {
        if (other != index && nodes_[other].asn == asn)
            return false;
    }
    return true;
}

bool
Topology::connected() const
{
    if (nodes_.empty())
        return true;
    std::vector<bool> seen(nodes_.size(), false);
    std::queue<size_t> frontier;
    seen[0] = true;
    frontier.push(0);
    size_t reached = 1;
    while (!frontier.empty()) {
        size_t at = frontier.front();
        frontier.pop();
        for (const Adjacent &adj : adjacency_[at]) {
            if (!seen[adj.node]) {
                seen[adj.node] = true;
                ++reached;
                frontier.push(adj.node);
            }
        }
    }
    return reached == nodes_.size();
}

NodeConfig
Topology::defaultNode(size_t index, const GenOptions &opts)
{
    NodeConfig node;
    node.name = "r" + std::to_string(index);
    node.asn = bgp::AsNumber(opts.firstAs + index);
    node.routerId = bgp::RouterId(index + 1);
    node.address = net::Ipv4Address(10, uint8_t(index >> 8),
                                    uint8_t(index & 0xff), 1);
    node.profile = opts.profile;
    return node;
}

namespace
{

Topology
makeNodes(size_t n, const GenOptions &opts)
{
    Topology topo;
    for (size_t i = 0; i < n; ++i)
        topo.addNode(Topology::defaultNode(i, opts));
    return topo;
}

} // namespace

Topology
Topology::line(size_t n, const GenOptions &opts)
{
    if (n < 2)
        fatal("line topology needs at least 2 nodes");
    Topology topo = makeNodes(n, opts);
    for (size_t i = 0; i + 1 < n; ++i)
        topo.addLink(i, i + 1, opts.latencyNs, opts.bandwidthMbps);
    return topo;
}

Topology
Topology::ring(size_t n, const GenOptions &opts)
{
    if (n < 3)
        fatal("ring topology needs at least 3 nodes");
    Topology topo = line(n, opts);
    topo.addLink(n - 1, 0, opts.latencyNs, opts.bandwidthMbps);
    return topo;
}

Topology
Topology::star(size_t n, const GenOptions &opts)
{
    if (n < 2)
        fatal("star topology needs at least 2 nodes");
    Topology topo = makeNodes(n, opts);
    for (size_t i = 1; i < n; ++i)
        topo.addLink(0, i, opts.latencyNs, opts.bandwidthMbps);
    return topo;
}

Topology
Topology::fullMesh(size_t n, const GenOptions &opts)
{
    if (n < 2)
        fatal("full-mesh topology needs at least 2 nodes");
    Topology topo = makeNodes(n, opts);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            topo.addLink(i, j, opts.latencyNs, opts.bandwidthMbps);
    return topo;
}

Topology
Topology::barabasiAlbert(size_t n, size_t attach_count, uint64_t seed,
                         const GenOptions &opts)
{
    if (attach_count < 1)
        fatal("preferential attachment needs attach_count >= 1");
    if (n <= attach_count)
        fatal("preferential attachment needs n > attach_count");

    Topology topo = makeNodes(n, opts);
    workload::Rng rng(seed);

    // Every link contributes both endpoints; drawing uniformly from
    // this list is drawing nodes proportionally to degree.
    std::vector<size_t> endpoints;

    size_t seed_nodes = attach_count + 1;
    for (size_t i = 0; i + 1 < seed_nodes; ++i) {
        topo.addLink(i, i + 1, opts.latencyNs, opts.bandwidthMbps);
        endpoints.push_back(i);
        endpoints.push_back(i + 1);
    }

    for (size_t i = seed_nodes; i < n; ++i) {
        std::vector<size_t> chosen;
        while (chosen.size() < attach_count) {
            size_t target = endpoints[rng.below(endpoints.size())];
            bool dup = false;
            for (size_t c : chosen)
                dup = dup || c == target;
            if (!dup)
                chosen.push_back(target);
        }
        for (size_t target : chosen) {
            topo.addLink(i, target, opts.latencyNs,
                         opts.bandwidthMbps);
            endpoints.push_back(i);
            endpoints.push_back(target);
        }
    }
    return topo;
}

Topology
Topology::clos(const ClosOptions &opts)
{
    if (opts.pods < 1 || opts.torsPerPod < 1 || opts.aggsPerPod < 1 ||
        opts.spines < 1) {
        fatal("clos topology needs at least 1 node per tier");
    }

    Topology topo;
    size_t index = 0;
    auto make_node = [&](const std::string &name, bgp::AsNumber asn) {
        NodeConfig node = defaultNode(index, opts.base);
        node.name = name;
        node.asn = asn;
        ++index;
        return topo.addNode(std::move(node));
    };

    // RFC 7938 AS scheme: one AS for the spine tier, one per pod for
    // its aggs, one per ToR (see ClosOptions).
    bgp::AsNumber spine_as = opts.base.firstAs;
    auto pod_as = [&](size_t pod) {
        return bgp::AsNumber(opts.base.firstAs + 1 + pod);
    };
    bgp::AsNumber first_tor_as =
        bgp::AsNumber(opts.base.firstAs + 1 + opts.pods);

    std::vector<size_t> spine_nodes;
    for (size_t s = 0; s < opts.spines; ++s) {
        spine_nodes.push_back(
            make_node("spine" + std::to_string(s), spine_as));
    }


    size_t tor_count = 0;
    for (size_t p = 0; p < opts.pods; ++p) {
        std::vector<size_t> agg_nodes;
        for (size_t a = 0; a < opts.aggsPerPod; ++a) {
            agg_nodes.push_back(make_node("p" + std::to_string(p) +
                                              "-agg" +
                                              std::to_string(a),
                                          pod_as(p)));
        }
        for (size_t t = 0; t < opts.torsPerPod; ++t) {
            size_t tor = make_node(
                "p" + std::to_string(p) + "-tor" + std::to_string(t),
                bgp::AsNumber(first_tor_as + tor_count));
            ++tor_count;
            for (size_t agg : agg_nodes) {
                topo.addLink(tor, agg, opts.base.latencyNs,
                             opts.base.bandwidthMbps);
            }
        }
        for (size_t agg : agg_nodes) {
            for (size_t spine : spine_nodes) {
                topo.addLink(agg, spine, opts.base.latencyNs,
                             opts.base.bandwidthMbps);
            }
        }
    }
    return topo;
}

Topology
Topology::closFromSize(size_t n, const GenOptions &opts)
{
    if (n < 8)
        fatal("clos topology needs at least 8 nodes");
    ClosOptions clos_opts;
    clos_opts.base = opts;
    clos_opts.pods = 2;
    clos_opts.aggsPerPod = 2;
    clos_opts.spines = 2;
    // 2 spines + 2 pods x (2 aggs + t tors) <= n.
    clos_opts.torsPerPod = (n - clos_opts.spines -
                            clos_opts.pods * clos_opts.aggsPerPod) /
                           clos_opts.pods;
    return clos(clos_opts);
}

} // namespace bgpbench::topo
