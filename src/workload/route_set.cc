#include "workload/route_set.hh"

#include <unordered_set>

#include "net/logging.hh"
#include "workload/rng.hh"

namespace bgpbench::workload
{

std::vector<RouteSpec>
generateRouteSet(const RouteSetConfig &config)
{
    if (config.count == 0)
        fatal("route set count must be positive");

    Rng rng(config.seed);
    std::vector<RouteSpec> routes;
    routes.reserve(config.count);
    std::unordered_set<net::Prefix> seen;
    seen.reserve(config.count * 2);

    while (routes.size() < config.count) {
        int length;
        if (rng.uniform() < slash24Fraction) {
            length = 24;
        } else {
            length = int(rng.range(16, 22));
        }

        // Draw from globally-routable-looking space: first octet in
        // [11, 200], avoiding 127 (loopback).
        uint32_t first = uint32_t(rng.range(11, 200));
        if (first == 127)
            first = 128;
        uint32_t rest = uint32_t(rng.next() & 0x00ffffff);
        net::Prefix prefix(
            net::Ipv4Address((first << 24) | rest), length);
        if (!seen.insert(prefix).second)
            continue;

        RouteSpec spec;
        spec.prefix = prefix;
        int hops = int(rng.range(uint64_t(minPathLength),
                                 uint64_t(maxPathLength)));
        spec.basePath.reserve(size_t(hops));
        for (int h = 0; h < hops; ++h) {
            spec.basePath.push_back(
                bgp::AsNumber(rng.range(100, 64000)));
        }
        routes.push_back(std::move(spec));
    }

    return routes;
}

std::vector<net::Ipv4Address>
destinationPool(const std::vector<RouteSpec> &routes, size_t count,
                uint64_t seed)
{
    if (routes.empty())
        fatal("destination pool requires routes");

    Rng rng(seed);
    std::vector<net::Ipv4Address> pool;
    pool.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        const auto &spec = routes[rng.below(routes.size())];
        // A host address inside the prefix.
        uint32_t host_bits = 32 - uint32_t(spec.prefix.length());
        uint32_t offset =
            host_bits == 0
                ? 0
                : uint32_t(rng.next()) &
                      ((host_bits >= 32) ? ~uint32_t(0)
                                         : ((1u << host_bits) - 1));
        pool.emplace_back(spec.prefix.address().toUint32() | offset);
    }
    return pool;
}

} // namespace bgpbench::workload
