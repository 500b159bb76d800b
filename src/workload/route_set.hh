/**
 * @file
 * Synthetic routing-table generation.
 *
 * The paper injects "a large routing table" learned from a BGP
 * neighbour. We generate one synthetically: unique CIDR prefixes with
 * Internet-like mask-length mix and random AS paths. Generation is
 * seeded and fully deterministic so every benchmark run processes an
 * identical workload.
 */

#ifndef BGPBENCH_WORKLOAD_ROUTE_SET_HH
#define BGPBENCH_WORKLOAD_ROUTE_SET_HH

#include <cstdint>
#include <vector>

#include "bgp/as_path.hh"
#include "bgp/types.hh"
#include "net/ipv4_address.hh"
#include "net/prefix.hh"

namespace bgpbench::workload
{

/** One generated route before attribute assembly. */
struct RouteSpec
{
    net::Prefix prefix;
    /** Base AS path as seen by the originating test speaker. */
    std::vector<bgp::AsNumber> basePath;
};

/** AS path length range (before the speaker's own AS). */
constexpr int minPathLength = 1;
constexpr int maxPathLength = 4;
/**
 * Fraction of /24 prefixes; the rest are a mix of /16..../22, echoing
 * the CIDR mask-length distribution of Internet tables.
 */
constexpr double slash24Fraction = 0.55;

/** Parameters of the generator. */
struct RouteSetConfig
{
    size_t count = 5000;
    uint64_t seed = 1;
};

/**
 * Generate @p config.count distinct prefixes with AS paths.
 * Deterministic in the seed.
 */
std::vector<RouteSpec> generateRouteSet(const RouteSetConfig &config);

/** Pick @p count destination addresses inside the generated routes. */
std::vector<net::Ipv4Address>
destinationPool(const std::vector<RouteSpec> &routes, size_t count,
                uint64_t seed);

} // namespace bgpbench::workload

#endif // BGPBENCH_WORKLOAD_ROUTE_SET_HH
