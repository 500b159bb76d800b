#include "workload/fullfeed.hh"

#include <algorithm>

#include "bgp/attr_intern.hh"
#include "bgp/update_builder.hh"
#include "net/logging.hh"

namespace bgpbench::workload
{

namespace
{

/**
 * Per-length route share in 1/10000 of the table, loosely following
 * the CIDR report for a ~1M-route default-free table: thin supernets,
 * a /16 "classful legacy" bump, and the bulk at /22../24. /24 takes
 * whatever these rows leave over (~62%).
 */
constexpr uint64_t kLengthShare[] = {
    1,    // /8
    1,    // /9
    2,    // /10
    5,    // /11
    10,   // /12
    20,   // /13
    40,   // /14
    70,   // /15
    130,  // /16
    80,   // /17
    140,  // /18
    250,  // /19
    430,  // /20
    450,  // /21
    1250, // /22
    900,  // /23
    0,    // /24 (remainder)
};

} // namespace

FullFeedGenerator::FullFeedGenerator(const FullFeedConfig &config)
    : total_(config.routeCount), prefixRng_(config.seed),
      pathRng_(config.seed ^
               0x9e3779b97f4a7c15ULL * (uint64_t(config.feedAs) + 1))
{
    if (total_ == 0)
        fatal("full feed requires a positive route count");
    if (config.feedAs == 0)
        fatal("full feed requires a feed AS");
    planLengthMix(config);
    buildPathPool(config);
}

void
FullFeedGenerator::planLengthMix(const FullFeedConfig &config)
{
    // Targets per length, each capped at half its address space so the
    // affine bijection never wraps into repeats; the slack (including
    // everything the short lengths cannot hold) lands on /24, whose
    // space covers feeds up to ~8M routes.
    uint64_t assigned = 0;
    for (size_t i = 0; i + 1 < kLengths; ++i) {
        const int length = kMinLength + int(i);
        const uint64_t capacity = (uint64_t(1) << length) / 2;
        const uint64_t target = std::min<uint64_t>(
            total_ * kLengthShare[i] / 10000, capacity);
        remaining_[i] = target;
        assigned += target;
    }
    const uint64_t slashTwentyFourCap = (uint64_t(1) << kMaxLength) / 2;
    if (total_ - assigned > slashTwentyFourCap)
        fatal("full feed route count exceeds the /24 address budget");
    remaining_[kLengths - 1] = total_ - assigned;
    remainingTotal_ = total_;

    // One bijection per length: x -> (a*x + c) mod 2^len with a odd.
    // Derived from the prefix stream so peers sharing a seed share the
    // exact prefix sequence.
    for (size_t i = 0; i < kLengths; ++i) {
        mult_[i] = prefixRng_.next() | 1;
        add_[i] = prefixRng_.next();
    }
    (void)config;
}

void
FullFeedGenerator::buildPathPool(const FullFeedConfig &config)
{
    const size_t attach = kAttachCount;
    const size_t nodes = kTopologyAses;

    // Barabási–Albert preferential attachment, built inline (see the
    // header for why topo:: is off limits here): the first attach+1
    // nodes form a line, then every new node links to `attach`
    // distinct nodes picked degree-proportionally by sampling the
    // edge-endpoints list. parent[] keeps the first link of each node,
    // giving a spanning tree whose root-to-leaf walks serve as paths.
    std::vector<uint32_t> parent(nodes, 0);
    std::vector<uint32_t> endpoints;
    endpoints.reserve(2 * nodes * attach);
    for (size_t i = 1; i <= attach && i < nodes; ++i) {
        parent[i] = uint32_t(i - 1);
        endpoints.push_back(uint32_t(i - 1));
        endpoints.push_back(uint32_t(i));
    }
    std::vector<uint32_t> targets;
    for (size_t i = attach + 1; i < nodes; ++i) {
        targets.clear();
        while (targets.size() < attach) {
            uint32_t pick = endpoints[pathRng_.below(endpoints.size())];
            if (std::find(targets.begin(), targets.end(), pick) ==
                targets.end())
                targets.push_back(pick);
        }
        parent[i] = targets.front();
        for (uint32_t target : targets) {
            endpoints.push_back(target);
            endpoints.push_back(uint32_t(i));
        }
    }

    // Pool entry: the feed peer's AS, then the tree walk from (near)
    // the hub down to a uniformly drawn origin. Uniform origins plus
    // degree-proportional interior nodes reproduce the real shape:
    // hubs transit almost everything, stubs only originate.
    const bgp::AsNumber asBase = 1;
    constexpr size_t kMaxTransitHops = 9;
    pool_.reserve(kPathPoolSize);
    std::vector<uint32_t> chain;
    for (size_t p = 0; p < kPathPoolSize; ++p) {
        uint32_t origin = uint32_t(pathRng_.below(nodes));
        chain.clear();
        for (uint32_t node = origin; node != 0; node = parent[node])
            chain.push_back(node);
        chain.push_back(0);
        std::reverse(chain.begin(), chain.end());
        // Long walks lose their hub end, keeping the origin intact —
        // mirrors how distant stubs still show bounded path lengths.
        if (chain.size() > kMaxTransitHops)
            chain.erase(chain.begin(),
                        chain.end() - ptrdiff_t(kMaxTransitHops));

        bgp::PathAttributes attrs;
        attrs.origin = bgp::Origin::Igp;
        attrs.nextHop = config.nextHop;
        std::vector<bgp::AsNumber> path;
        path.reserve(1 + chain.size());
        path.push_back(config.feedAs);
        for (uint32_t node : chain)
            path.push_back(asBase + bgp::AsNumber(node));
        attrs.asPath = bgp::AsPath::sequence(std::move(path));
        pool_.push_back(bgp::makeAttributes(std::move(attrs)));
    }
}

int
FullFeedGenerator::drawLength()
{
    uint64_t pick = prefixRng_.below(remainingTotal_);
    for (size_t i = 0; i < kLengths; ++i) {
        if (pick < remaining_[i]) {
            --remaining_[i];
            --remainingTotal_;
            return kMinLength + int(i);
        }
        pick -= remaining_[i];
    }
    fatal("full feed length mix out of mass"); // unreachable
}

net::Prefix
FullFeedGenerator::prefixAt(int length, uint64_t k) const
{
    const size_t i = size_t(length - kMinLength);
    const uint64_t mask = (uint64_t(1) << length) - 1;
    const uint64_t value = (mult_[i] * k + add_[i]) & mask;
    return net::Prefix(net::Ipv4Address(uint32_t(value << (32 - length))),
                       length);
}

size_t
FullFeedGenerator::nextChunk(std::vector<StreamPacket> &out)
{
    if (done())
        return 0;
    const size_t count = std::min(kChunkPrefixes, total_ - generated_);

    bgp::UpdateBuilder builder;
    for (size_t i = 0; i < count; ++i) {
        const int length = drawLength();
        const size_t slot = size_t(length - kMinLength);
        const net::Prefix prefix = prefixAt(length, emitted_[slot]++);
        // Quadratic skew: a handful of pool paths cover a large share
        // of prefixes, like the dominant transit paths in a real feed.
        const double u = pathRng_.uniform();
        const size_t idx =
            std::min(pool_.size() - 1, size_t(u * u * double(pool_.size())));
        builder.announce(prefix, pool_[idx]);
    }
    generated_ += count;
    appendPackets(builder, out);
    return count;
}

} // namespace bgpbench::workload
