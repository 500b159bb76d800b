/**
 * @file
 * Builds the wire-format UPDATE streams the test speakers inject.
 *
 * Table I's "packet size" dimension is realised here: small packets
 * carry a single prefix per UPDATE message, large packets carry 500
 * prefixes sharing one attribute block (prefixes packed into one
 * UPDATE must share attributes, so in large-packet mode each group of
 * 500 consecutive routes is given a common AS path).
 */

#ifndef BGPBENCH_WORKLOAD_UPDATE_STREAM_HH
#define BGPBENCH_WORKLOAD_UPDATE_STREAM_HH

#include <cstdint>
#include <vector>

#include "bgp/message.hh"
#include "bgp/types.hh"
#include "bgp/update_builder.hh"
#include "net/ipv4_address.hh"
#include "workload/route_set.hh"

namespace bgpbench::workload
{

/** How a test speaker frames its announcements. */
struct StreamConfig
{
    /** The sending speaker's AS (first AS of every path). */
    bgp::AsNumber speakerAs = 0;
    /** NEXT_HOP placed on every announcement. */
    net::Ipv4Address nextHop;
    /** Prefixes per UPDATE packet (1 = small, 500 = large). */
    size_t prefixesPerPacket = 1;
    /**
     * Extra copies of the speaker's AS prepended to every path.
     * Scenarios 5/6 give Speaker 2 a longer path than Speaker 1;
     * scenarios 7/8 give Speaker 1 the longer path.
     */
    int extraPrepends = 0;
};

/**
 * One ready-to-send packet: framed wire bytes (as a shared immutable
 * segment, so a packet replayed to many routers is encoded once) plus
 * bookkeeping.
 */
struct StreamPacket
{
    net::WireSegmentPtr wire;
    size_t transactions = 0;
};

/**
 * Build the changes queued in @p builder and append them to @p out,
 * one packet per UPDATE in build order; the builder is left empty.
 * Every stream of this module, the churn stream and the full feed
 * frame their packets here.
 */
void appendPackets(bgp::UpdateBuilder &builder,
                   std::vector<StreamPacket> &out);

/**
 * Build announcement packets for @p routes in order.
 * Deterministic; every call with equal inputs yields equal bytes.
 */
std::vector<StreamPacket>
buildAnnouncementStream(const std::vector<RouteSpec> &routes,
                        const StreamConfig &config);

/** Build withdrawal packets for @p routes in order. */
std::vector<StreamPacket>
buildWithdrawalStream(const std::vector<RouteSpec> &routes,
                      const StreamConfig &config);

/** Total transactions across @p packets. */
size_t streamTransactions(const std::vector<StreamPacket> &packets);

/** Total wire bytes across @p packets. */
size_t streamBytes(const std::vector<StreamPacket> &packets);

} // namespace bgpbench::workload

#endif // BGPBENCH_WORKLOAD_UPDATE_STREAM_HH
