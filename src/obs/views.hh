/**
 * @file
 * Canonical metric names plus views over the MetricRegistry:
 * producers publish plain named metrics, and these renderers read
 * them back by name. One registry, one code path, no parallel struct
 * plumbing.
 */

#ifndef BGPBENCH_OBS_VIEWS_HH
#define BGPBENCH_OBS_VIEWS_HH

#include <ostream>
#include <string>

#include "obs/metrics.hh"

namespace bgpbench::obs
{

/**
 * Canonical metric names. Producers publish under these; views and
 * tests read them back. Per-shard parallel metrics are
 * "parallel.shard.<index>.<field>" via shardMetricName().
 */
namespace metric
{

inline constexpr const char *internLookups = "intern.lookups";
inline constexpr const char *internHits = "intern.hits";
inline constexpr const char *internMisses = "intern.misses";
inline constexpr const char *internLiveSets = "intern.live_sets";
inline constexpr const char *internBytesDeduplicated =
    "intern.bytes_deduplicated";

inline constexpr const char *wireAcquires = "wire.acquires";
inline constexpr const char *wirePoolHits = "wire.pool_hits";
inline constexpr const char *wirePoolMisses = "wire.pool_misses";
inline constexpr const char *wireSharedEncodes =
    "wire.shared_encodes";
inline constexpr const char *wireBytesDeduplicated =
    "wire.bytes_deduplicated";
inline constexpr const char *wireOutstandingSegments =
    "wire.outstanding_segments";
inline constexpr const char *wirePeakOutstandingSegments =
    "wire.peak_outstanding_segments";

inline constexpr const char *parallelJobs = "parallel.jobs";
inline constexpr const char *parallelShards = "parallel.shards";
inline constexpr const char *parallelCutLinks = "parallel.cut_links";
inline constexpr const char *parallelEdgeCutRatio =
    "parallel.edge_cut_ratio";
inline constexpr const char *parallelNodeSkew = "parallel.node_skew";
inline constexpr const char *parallelLookaheadNs =
    "parallel.lookahead_ns";
inline constexpr const char *parallelWindows = "parallel.windows";
inline constexpr const char *parallelBarrierWaitNs =
    "parallel.barrier_wait_ns";

/** Sum of opened window lengths (virtual ns — deterministic). */
inline constexpr const char *topoWindowLenNs = "topo.window_len_ns";
/** Host ns workers spent blocked on the window barrier (diagnostic:
 *  nondeterministic, never byte-compared). */
inline constexpr const char *topoBarrierWaitNs =
    "topo.barrier_wait_ns";
/** Shard tasks taken from another worker's deque (diagnostic). */
inline constexpr const char *topoStealCount = "topo.steal_count";

/** Route-map evaluations against a non-empty policy (speakers). */
inline constexpr const char *bgpPolicyEvals = "bgp.policy_evals";
/** Routes rejected by import/export policy (speakers). */
inline constexpr const char *bgpPolicyRejects = "bgp.policy_rejects";
/** Loc-RIB installs that produced a multipath (ECMP) group. */
inline constexpr const char *bgpEcmpGroups = "bgp.ecmp_groups";

/** Routes crossing the damping suppress threshold (RFC 2439). */
inline constexpr const char *bgpDampingSuppressed =
    "bgp.damping_suppressed";
/** Suppressed routes re-admitted after decaying below reuse. */
inline constexpr const char *bgpDampingReused = "bgp.damping_reused";
/** Flush rounds where a peer's queue was held back by MRAI. */
inline constexpr const char *bgpMraiDeferrals = "bgp.mrai_deferrals";

/** Distinct AS paths offered per (router, prefix) in one scenario. */
inline constexpr const char *topoPathExploration =
    "topo.path_exploration";

} // namespace metric

/** "parallel.shard.<index>.<field>" */
std::string shardMetricName(size_t shard, const char *field);

/**
 * Print the parallel-run summary line plus a per-shard utilization
 * table — same bytes as the former printParallelReport. Does nothing
 * when no parallel metrics were published.
 */
void printParallelView(std::ostream &os,
                       const MetricRegistry &registry);

/**
 * Imbalance of executed events across shards: the busiest shard's
 * share over the ideal 1/shards share, minus one (the former
 * ParallelReport::eventImbalance).
 */
double parallelEventImbalance(const MetricRegistry &registry);

} // namespace bgpbench::obs

#endif // BGPBENCH_OBS_VIEWS_HH
