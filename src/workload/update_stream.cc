#include "workload/update_stream.hh"

#include "bgp/update_builder.hh"
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

std::vector<StreamPacket>
toPackets(std::vector<bgp::UpdateMessage> updates)
{
    std::vector<StreamPacket> packets;
    packets.reserve(updates.size());
    for (const auto &update : updates) {
        StreamPacket pkt;
        pkt.transactions = update.transactionCount();
        pkt.wire = bgp::encodeSegment(update);
        packets.push_back(std::move(pkt));
    }
    return packets;
}

} // namespace

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
    return toPackets(builder.build());
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
    return toPackets(builder.build());
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
