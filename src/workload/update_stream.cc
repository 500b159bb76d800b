#include "workload/update_stream.hh"

#include "net/logging.hh"

namespace bgpbench::workload
{

namespace
{

/** Assemble the shared attributes for one packet group. */
bgp::PathAttributesPtr
groupAttributes(const RouteSpec &leader, const StreamConfig &config)
{
    bgp::PathAttributes attrs;
    attrs.origin = bgp::Origin::Igp;
    attrs.nextHop = config.nextHop;

    std::vector<bgp::AsNumber> path;
    path.reserve(1 + size_t(config.extraPrepends) +
                 leader.basePath.size());
    for (int i = 0; i <= config.extraPrepends; ++i)
        path.push_back(config.speakerAs);
    path.insert(path.end(), leader.basePath.begin(),
                leader.basePath.end());
    attrs.asPath = bgp::AsPath::sequence(std::move(path));
    return bgp::makeAttributes(std::move(attrs));
}

} // namespace

void
appendPackets(bgp::UpdateBuilder &builder, std::vector<StreamPacket> &out)
{
    for (const auto &update : builder.build())
        out.push_back(StreamPacket{bgp::encodeSegment(update),
                                   update.transactionCount()});
}

std::vector<StreamPacket>
buildAnnouncementStream(const std::vector<RouteSpec> &routes,
                        const StreamConfig &config)
{
    if (config.speakerAs == 0)
        fatal("stream config requires a speaker AS");
    if (config.prefixesPerPacket == 0)
        fatal("prefixes per packet must be positive");

    bgp::UpdateBuilder builder(config.prefixesPerPacket);

    size_t group = config.prefixesPerPacket;
    for (size_t i = 0; i < routes.size(); ++i) {
        // Every packet group shares the attributes of its leader so
        // the whole group packs into a single UPDATE.
        const RouteSpec &leader = routes[i - (i % group)];
        builder.announce(routes[i].prefix,
                         groupAttributes(leader, config));
    }
    std::vector<StreamPacket> packets;
    appendPackets(builder, packets);
    return packets;
}

std::vector<StreamPacket>
buildWithdrawalStream(const std::vector<RouteSpec> &routes,
                      const StreamConfig &config)
{
    if (config.prefixesPerPacket == 0)
        fatal("prefixes per packet must be positive");

    bgp::UpdateBuilder builder(config.prefixesPerPacket);
    for (const auto &route : routes)
        builder.withdraw(route.prefix);
    std::vector<StreamPacket> packets;
    appendPackets(builder, packets);
    return packets;
}

size_t
streamTransactions(const std::vector<StreamPacket> &packets)
{
    size_t total = 0;
    for (const auto &pkt : packets)
        total += pkt.transactions;
    return total;
}

size_t
streamBytes(const std::vector<StreamPacket> &packets)
{
    size_t total = 0;
    for (const auto &pkt : packets)
        total += pkt.wire->size();
    return total;
}

} // namespace bgpbench::workload
