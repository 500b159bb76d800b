/**
 * @file
 * Topology sharding for the parallel simulation engine.
 *
 * The partitioner splits a topology's routers into a requested number
 * of shards so that one worker thread can own each shard's event
 * queue. Three goals pull against each other: shards should hold
 * equal node counts (thread load balance), as few links as possible
 * should cross shards (every cut link forces cross-shard message
 * exchange), and the links that *are* cut should be slow ones —
 * the smallest cut-link latency seeds the conservative lookahead
 * window, so cutting a fast link throttles every shard.
 *
 * The algorithm is a portfolio of greedy BFS growths: each shard
 * starts from the lowest-numbered unassigned node and absorbs
 * unassigned neighbours breadth-first until its node quota is met,
 * restarting from the next unassigned seed if the frontier empties
 * (disconnected remainder). The strategies differ only in the order
 * neighbours are absorbed: AdjacencyOrder takes them as the topology
 * lists them (the original greedy), LatencyAffinity takes the
 * lowest-latency neighbour first, keeping fast links inside shards
 * and pushing slow ones onto the cut. partitionTopology() runs both
 * and keeps the cut with the larger minimum cut latency (tie-break:
 * fewer cut links, then strategy order) — so the chosen cut never
 * has a lower lookahead seed than the original greedy produced. On
 * lines, rings, and stars with uniform latencies this recovers the
 * contiguous minimum-cut split exactly as before. The result is a
 * pure function of the topology and the shard count — determinism of
 * parallel runs starts here.
 */

#ifndef BGPBENCH_TOPO_PARTITION_HH
#define BGPBENCH_TOPO_PARTITION_HH

#include <cstdint>
#include <vector>

#include "topo/topology.hh"

namespace bgpbench::topo
{

/** A node-to-shard assignment plus its quality measures. */
struct Partition
{
    /** shardOf[node] = owning shard index. */
    std::vector<uint32_t> shardOf;
    size_t shardCount = 0;
    /** Nodes per shard. */
    std::vector<size_t> shardNodes;
    /** Links whose endpoints live in different shards. */
    size_t cutLinks = 0;
    /** cutLinks / linkCount (0 when the topology has no links). */
    double edgeCutRatio = 0.0;
    /**
     * Node-count imbalance: largest shard relative to the ideal
     * nodeCount / shardCount, minus one. 0 means perfectly balanced;
     * 0.25 means the biggest shard is 25% over its fair share.
     */
    double nodeSkew = 0.0;
    /**
     * Smallest latency over cut links — the conservative lookahead
     * window of the parallel engine. simTimeNever when nothing is
     * cut (single shard).
     */
    sim::SimTime minCutLatencyNs = sim::simTimeNever;
    /**
     * Per shard: the smallest latency over cut links with an
     * endpoint in that shard (simTimeNever when the shard touches no
     * cut link). Feeds the window loop's causality bound: no
     * message shard s emits can arrive anywhere earlier than its own
     * next event time plus this latency.
     */
    std::vector<sim::SimTime> shardMinCutLatencyNs;

    bool crossShard(const Link &link) const
    {
        return shardOf[link.a.node] != shardOf[link.b.node];
    }
};

/** Neighbour-absorption order of the greedy BFS growth. */
enum class PartitionStrategy
{
    /** Topology adjacency order — the original greedy, bit-exact. */
    AdjacencyOrder,
    /** Ascending link latency (ties by node index): keep fast links
     *  internal so the cut is made of slow ones. */
    LatencyAffinity,
};

/**
 * Partition @p topo into @p shards shards (clamped to the node
 * count; 0 is fatal) with one fixed strategy. Deterministic for
 * equal inputs.
 */
Partition partitionTopologyWithStrategy(const Topology &topo,
                                        size_t shards,
                                        PartitionStrategy strategy);

/**
 * Portfolio partition: run every strategy and keep the result with
 * the largest minCutLatencyNs (tie-break: fewer cut links, then
 * strategy declaration order). Deterministic for equal inputs, and
 * never worse (in min cut latency) than the AdjacencyOrder greedy.
 */
Partition partitionTopology(const Topology &topo, size_t shards);

/**
 * The shard count the parallel engine asks partitionTopology() for
 * when @p jobs worker threads run @p nodes routers: 1 for a
 * sequential run, otherwise about two shards per worker (capped at
 * one node per shard), so the work-stealing deques have shards to
 * hand an idle worker.
 */
size_t shardTarget(size_t nodes, size_t jobs);

} // namespace bgpbench::topo

#endif // BGPBENCH_TOPO_PARTITION_HH
