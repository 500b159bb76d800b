/**
 * @file
 * RFC-1812-compliant IPv4 forwarding engine.
 *
 * Performs the per-packet processing the paper lists in section IV.B:
 * IP header checksum verification, TTL decrement (discarding expired
 * packets), incremental checksum update, and FIB longest-prefix-match
 * lookup. The simulated routers charge cycles per step; this class
 * does the actual work and reports how much of it there was. The
 * lookup's share is the node count of a unibit trie over the FIB's
 * routes, which the compressed tree the FIB is stored in computes
 * without building one.
 */

#ifndef BGPBENCH_FIB_FORWARDING_ENGINE_HH
#define BGPBENCH_FIB_FORWARDING_ENGINE_HH

#include <cstdint>
#include <string>

#include "fib/forwarding_table.hh"
#include "net/packet.hh"

namespace bgpbench::fib
{

/** Why a packet was not forwarded. */
enum class DropReason : uint8_t
{
    None = 0,
    BadChecksum,
    TtlExpired,
    NoRoute,
};

/** Human-readable drop reason. */
std::string toString(DropReason reason);

/** Outcome of processing one packet. */
struct ForwardResult
{
    bool forwarded = false;
    DropReason dropReason = DropReason::None;
    net::Ipv4Address nextHop;
    uint32_t egressInterface = 0;
    /**
     * Unibit-trie nodes the FIB lookup visited (work metric for the
     * simulator; see ForwardingTable::lookup()).
     */
    int lookupNodesVisited = 0;
};

/** Lifetime counters of a forwarding engine. */
struct ForwardingCounters
{
    uint64_t received = 0;
    uint64_t forwarded = 0;
    uint64_t badChecksum = 0;
    uint64_t ttlExpired = 0;
    uint64_t noRoute = 0;
    uint64_t bytesForwarded = 0;
};

/**
 * The forwarding fast path. Owns no packets and no table; it operates
 * on a caller-provided ForwardingTable so the control plane (which
 * owns FIB updates) and the data plane share exactly one table, as in
 * a real router.
 */
class ForwardingEngine
{
  public:
    explicit ForwardingEngine(ForwardingTable *table)
        : table_(table)
    {}

    /**
     * Process one packet per RFC 1812 section 5.2: validate the
     * header checksum, look up the destination, decrement the TTL
     * (dropping expired packets), and incrementally fix the checksum.
     *
     * @param packet The packet; its header is rewritten on success.
     * @return What happened and how much lookup work it took.
     */
    ForwardResult process(net::DataPacket &packet);

    const ForwardingCounters &counters() const { return counters_; }

  private:
    ForwardingTable *table_;
    ForwardingCounters counters_;
};

} // namespace bgpbench::fib

#endif // BGPBENCH_FIB_FORWARDING_ENGINE_HH
