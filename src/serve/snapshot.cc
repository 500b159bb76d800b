#include "serve/snapshot.hh"

#include <algorithm>
#include <map>

namespace bgpbench::serve
{

RibSnapshotPtr
RibSnapshot::build(const bgp::LocRib &rib, uint64_t epoch,
                   uint64_t publishedAtNs)
{
    auto snapshot = std::make_shared<RibSnapshot>();
    snapshot->epoch_ = epoch;
    snapshot->publishedAtNs_ = publishedAtNs;

    snapshot->routes_.reserve(rib.size());
    std::map<bgp::PeerId, uint64_t> per_peer;
    std::vector<net::Ipv4Address> hops;
    rib.forEach([&](const net::Prefix &prefix,
                    const bgp::LocRib::Entry &entry) {
        SnapshotRoute route;
        route.prefix = prefix;
        route.attributes = entry.best.attributes;
        route.peer = entry.best.peer;
        route.locallyOriginated = entry.best.locallyOriginated;
        entry.nextHops(hops);
        route.extraHops.assign(hops.begin() + 1, hops.end());
        snapshot->routes_.push_back(std::move(route));
        ++per_peer[entry.best.peer];
    });
    // LocRib::forEach guarantees ascending (address, length) order,
    // so the route array arrives sorted and every field of the
    // snapshot (route array, scan output, checksum) is a pure
    // function of the table content.

    snapshot->index_.reserve(snapshot->routes_.size());
    for (size_t i = 0; i < snapshot->routes_.size(); ++i)
        snapshot->index_.insert(snapshot->routes_[i].prefix, uint32_t(i));

    snapshot->peers_.reserve(per_peer.size());
    for (const auto &[peer, count] : per_peer)
        snapshot->peers_.push_back({peer, count});

    snapshot->checksum_ = computeChecksum(epoch, snapshot->routes_);
    return snapshot;
}

bool
RibSnapshot::verifyChecksum() const
{
    return computeChecksum(epoch_, routes_) == checksum_;
}

uint64_t
RibSnapshot::computeChecksum(uint64_t epoch,
                             const std::vector<SnapshotRoute> &routes)
{
    // FNV-1a over the epoch and each route's (address, length, peer)
    // key. Attribute bytes are deliberately excluded: they are shared
    // immutable interned objects, so tearing there is impossible.
    uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](uint64_t value) {
        for (int shift = 0; shift < 64; shift += 8) {
            hash ^= (value >> shift) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    mix(epoch);
    for (const SnapshotRoute &route : routes) {
        mix((uint64_t(route.prefix.address().toUint32()) << 8) |
            uint64_t(route.prefix.length()));
        mix(route.peer);
        // ECMP hops contribute per element, so a single-path snapshot
        // (no extra hops) hashes exactly as it always did.
        for (net::Ipv4Address hop : route.extraHops)
            mix(hop.toUint32());
    }
    return hash;
}

size_t
RibSnapshot::firstInRange(const net::Prefix &range) const
{
    auto it = std::lower_bound(
        routes_.begin(), routes_.end(), range.address(),
        [](const SnapshotRoute &route, net::Ipv4Address addr) {
            return route.prefix.address() < addr;
        });
    return size_t(it - routes_.begin());
}

bool
RibSnapshot::rangeSpans(const net::Prefix &range,
                        const net::Prefix &prefix)
{
    uint32_t last = range.address().toUint32() |
                    ~net::maskForLength(range.length());
    return prefix.address().toUint32() <= last;
}

} // namespace bgpbench::serve
