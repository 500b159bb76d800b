#include "topo/partition.hh"

#include <algorithm>
#include <queue>

#include "net/logging.hh"

namespace bgpbench::topo
{

namespace
{

/** Fill the cut statistics of an assigned partition. */
void
computeCutStats(Partition &out, const Topology &topo)
{
    out.cutLinks = 0;
    out.minCutLatencyNs = sim::simTimeNever;
    out.shardMinCutLatencyNs.assign(out.shardCount,
                                    sim::simTimeNever);
    for (size_t l = 0; l < topo.linkCount(); ++l) {
        const Link &link = topo.link(l);
        if (!out.crossShard(link))
            continue;
        ++out.cutLinks;
        out.minCutLatencyNs =
            std::min(out.minCutLatencyNs, link.latencyNs);
        for (size_t shard : {out.shardOf[link.a.node],
                             out.shardOf[link.b.node]}) {
            out.shardMinCutLatencyNs[shard] = std::min(
                out.shardMinCutLatencyNs[shard], link.latencyNs);
        }
    }
    out.edgeCutRatio = 0.0;
    if (topo.linkCount() > 0) {
        out.edgeCutRatio =
            double(out.cutLinks) / double(topo.linkCount());
    }

    size_t largest = *std::max_element(out.shardNodes.begin(),
                                       out.shardNodes.end());
    double ideal = double(topo.nodeCount()) / double(out.shardCount);
    out.nodeSkew = double(largest) / ideal - 1.0;
}

} // namespace

Partition
partitionTopologyWithStrategy(const Topology &topo, size_t shards,
                              PartitionStrategy strategy)
{
    if (shards == 0)
        fatal("cannot partition a topology into zero shards");
    size_t nodes = topo.nodeCount();
    shards = std::min(shards, nodes);

    Partition out;
    out.shardCount = shards;
    out.shardOf.assign(nodes, 0);
    out.shardNodes.assign(shards, 0);

    // Fair node quotas: the first (nodes % shards) shards take one
    // extra node, so counts never differ by more than one.
    size_t next_seed = 0;
    std::vector<bool> assigned(nodes, false);
    std::vector<Topology::Adjacent> ordered;
    for (size_t s = 0; s < shards; ++s) {
        size_t quota = nodes / shards + (s < nodes % shards ? 1 : 0);
        std::queue<size_t> frontier;
        size_t taken = 0;
        while (taken < quota) {
            if (frontier.empty()) {
                // Fresh seed: the lowest unassigned node. Needed for
                // the first node of the shard and whenever the
                // unassigned remainder is disconnected.
                while (assigned[next_seed])
                    ++next_seed;
                assigned[next_seed] = true;
                frontier.push(next_seed);
                out.shardOf[next_seed] = uint32_t(s);
                ++taken;
                continue;
            }
            size_t at = frontier.front();
            frontier.pop();
            const std::vector<Topology::Adjacent> *neighbors =
                &topo.neighborsOf(at);
            if (strategy == PartitionStrategy::LatencyAffinity) {
                ordered = *neighbors;
                std::stable_sort(
                    ordered.begin(), ordered.end(),
                    [&](const Topology::Adjacent &a,
                        const Topology::Adjacent &b) {
                        sim::SimTime la = topo.link(a.link).latencyNs;
                        sim::SimTime lb = topo.link(b.link).latencyNs;
                        if (la != lb)
                            return la < lb;
                        return a.node < b.node;
                    });
                neighbors = &ordered;
            }
            for (const Topology::Adjacent &adj : *neighbors) {
                if (taken >= quota)
                    break;
                if (assigned[adj.node])
                    continue;
                assigned[adj.node] = true;
                out.shardOf[adj.node] = uint32_t(s);
                frontier.push(adj.node);
                ++taken;
            }
        }
        out.shardNodes[s] = quota;
    }

    computeCutStats(out, topo);
    return out;
}

Partition
partitionTopology(const Topology &topo, size_t shards)
{
    Partition best = partitionTopologyWithStrategy(
        topo, shards, PartitionStrategy::AdjacencyOrder);
    if (best.shardCount <= 1 || best.cutLinks == 0)
        return best;
    Partition latency = partitionTopologyWithStrategy(
        topo, shards, PartitionStrategy::LatencyAffinity);
    // Larger min cut latency wins (a longer lookahead seed); tie on
    // fewer cut links; a full tie keeps the original greedy, so
    // uniform-latency shapes partition exactly as they always have.
    if (latency.minCutLatencyNs > best.minCutLatencyNs ||
        (latency.minCutLatencyNs == best.minCutLatencyNs &&
         latency.cutLinks < best.cutLinks)) {
        return latency;
    }
    return best;
}

size_t
shardTarget(size_t nodes, size_t jobs)
{
    return jobs > 1 ? std::min(nodes, 2 * jobs) : 1;
}

} // namespace bgpbench::topo
