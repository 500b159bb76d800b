/**
 * @file
 * Streaming internet-like full-feed generator.
 *
 * Produces an announce-only feed shaped like a real default-free-zone
 * table: a deterministic CIDR mix over /8../24 whose mass sits at /24,
 * and AS paths drawn from a synthetic Barabási–Albert topology so a
 * few well-connected transit ASes appear on most paths while origins
 * follow the long tail. The generator is streaming by construction:
 * nextChunk() materialises only one chunk of framed packets at a time,
 * so a 1M-prefix feed never stages the whole table in memory and
 * ingestion interleaves with decision/flush in the consumer.
 *
 * Determinism contract: the prefix sequence depends only on
 * (seed, routeCount), never on feedAs — feeding the same seed to
 * several per-peer generators yields the *same* prefixes with
 * per-peer paths, which is how real multi-homed full feeds overlap.
 *
 * Layering: this lives below bgpbench_topo (which links this
 * library), so the preferential-attachment graph is built inline
 * with workload::Rng rather than via topo::Topology.
 */

#ifndef BGPBENCH_WORKLOAD_FULLFEED_HH
#define BGPBENCH_WORKLOAD_FULLFEED_HH

#include <cstdint>
#include <vector>

#include "bgp/path_attributes.hh"
#include "net/prefix.hh"
#include "workload/rng.hh"
#include "workload/update_stream.hh"

namespace bgpbench::workload
{

/** Tunables for one peer's full feed. */
struct FullFeedConfig
{
    /** Workload seed; controls the shared prefix sequence. */
    uint64_t seed = 1;

    /** Total routes to emit. */
    size_t routeCount = 1'000'000;

    /** The announcing peer's AS; first hop of every path. */
    bgp::AsNumber feedAs = 64600;

    /** NEXT_HOP carried by every announcement. */
    net::Ipv4Address nextHop = net::Ipv4Address(10, 0, 0, 1);
};

/**
 * Emits a full feed chunk by chunk. Each chunk is a batch of framed
 * UPDATE packets (grouped by shared attributes, so packing mirrors a
 * real feed where popular paths pack many prefixes per message).
 */
class FullFeedGenerator
{
  public:
    explicit FullFeedGenerator(const FullFeedConfig &config);

    /** Total routes this feed will emit. */
    size_t routeCount() const { return total_; }

    /** Routes emitted so far. */
    size_t generated() const { return generated_; }

    bool done() const { return generated_ == total_; }

    /**
     * Append the next chunk of packets to @p out.
     * @return Routes emitted in this chunk; 0 once the feed is done.
     */
    size_t nextChunk(std::vector<StreamPacket> &out);

    /** Distinct attribute sets in the path pool (for reporting). */
    size_t pathPoolSize() const { return pool_.size(); }

  private:
    /**
     * Routes per nextChunk() call. Each chunk's UPDATEs are packed as
     * full as 4096 bytes allow.
     */
    static constexpr size_t kChunkPrefixes = 4096;
    /** Synthetic AS graph size (power-law via BA attachment). */
    static constexpr size_t kTopologyAses = 2048;
    /** BA attachment degree (edges per new AS). */
    static constexpr size_t kAttachCount = 2;
    /** Distinct AS-path attribute sets to draw from. */
    static constexpr size_t kPathPoolSize = 32768;

    /** Smallest generated mask length. */
    static constexpr int kMinLength = 8;
    /** Largest (and most common) generated mask length. */
    static constexpr int kMaxLength = 24;
    static constexpr size_t kLengths = kMaxLength - kMinLength + 1;

    void planLengthMix(const FullFeedConfig &config);
    void buildPathPool(const FullFeedConfig &config);

    /** Draw a mask length weighted by the remaining per-length mass. */
    int drawLength();

    /** The k-th distinct prefix of length @p length. */
    net::Prefix prefixAt(int length, uint64_t k) const;

    size_t total_ = 0;
    size_t generated_ = 0;

    /** Drives the prefix sequence; seeded from seed only. */
    Rng prefixRng_;
    /** Drives path selection; seeded from (seed, feedAs). */
    Rng pathRng_;

    /** Remaining / emitted routes per length (index 0 = /8). */
    uint64_t remaining_[kLengths] = {};
    uint64_t emitted_[kLengths] = {};
    uint64_t remainingTotal_ = 0;

    /**
     * Per-length affine bijection (odd multiplier mod 2^len), so the
     * k-th prefix of a length is unique without any dedup set.
     */
    uint64_t mult_[kLengths] = {};
    uint64_t add_[kLengths] = {};

    std::vector<bgp::PathAttributesPtr> pool_;
};

} // namespace bgpbench::workload

#endif // BGPBENCH_WORKLOAD_FULLFEED_HH
