/**
 * @file
 * Immutable, epoch-stamped Loc-RIB snapshots — the read side of the
 * speaker.
 *
 * A RibSnapshot is a self-contained copy of one speaker's Loc-RIB at
 * a publication point: the routes in ascending prefix order, a
 * net::PrefixTree indexing them (over *indexes* into the route array,
 * so the tree stores 4-byte values, not routes, in one arena reserved
 * up front), and per-peer summary counts. Attribute sets are shared
 * with the writer via PathAttributesPtr — interning (PR 2) makes them
 * immutable and refcounted, so a snapshot costs one pointer per
 * route, not a deep copy of paths.
 *
 * Once built, a snapshot never changes; readers on any thread may
 * query it freely while the decision process races ahead publishing
 * newer epochs. A reader holding an old epoch keeps it valid for as
 * long as it holds the shared_ptr (RCU-style grace by refcount).
 *
 * The build-time checksum covers every route key and the epoch;
 * verifyChecksum() lets stress tests assert that no torn state is
 * ever observable through a published pointer.
 */

#ifndef BGPBENCH_SERVE_SNAPSHOT_HH
#define BGPBENCH_SERVE_SNAPSHOT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bgp/rib.hh"
#include "bgp/route.hh"
#include "net/prefix.hh"
#include "net/prefix_tree.hh"

namespace bgpbench::serve
{

/** One best path as frozen into a snapshot. */
struct SnapshotRoute
{
    net::Prefix prefix;
    /** Shared immutable attribute set (interned). */
    bgp::PathAttributesPtr attributes;
    /** Peer the best path was learned from (or localPeerId). */
    bgp::PeerId peer = 0;
    bool locallyOriginated = false;
    /**
     * The route's next-hop list (LocRib::Entry::nextHops) after the
     * best path's own hop — empty whenever the group is the best
     * path alone, as with maximum-paths 1, so such snapshots hash as
     * single-path ones.
     */
    std::vector<net::Ipv4Address> extraHops;
};

/** Per-peer contribution to the snapshot. */
struct PeerTableSummary
{
    bgp::PeerId peer = 0;
    /** Best paths in the table learned from this peer. */
    uint64_t bestPaths = 0;
};

class RibSnapshot;
using RibSnapshotPtr = std::shared_ptr<const RibSnapshot>;

class RibSnapshot
{
  public:
    /** The empty table at epoch 0 (a publisher's initial state). */
    RibSnapshot() : checksum_(computeChecksum(0, {})) {}

    /**
     * Freeze @p rib into an immutable snapshot.
     *
     * @param rib The live Loc-RIB (caller must be its owner thread).
     * @param epoch Monotonic version stamp (the speaker's
     *        ribVersion()).
     * @param publishedAtNs Virtual time of the publication.
     */
    static RibSnapshotPtr build(const bgp::LocRib &rib, uint64_t epoch,
                                uint64_t publishedAtNs);

    uint64_t epoch() const { return epoch_; }
    uint64_t publishedAtNs() const { return publishedAtNs_; }
    size_t size() const { return routes_.size(); }
    bool empty() const { return routes_.empty(); }

    /** Best path of the exact prefix, or null. */
    const SnapshotRoute *
    bestPath(const net::Prefix &prefix) const
    {
        const uint32_t *index = index_.find(prefix);
        return index ? &routes_[*index] : nullptr;
    }

    /**
     * Longest-prefix-match of @p addr, or null when no route covers
     * it. @p visited optionally receives the nodes a unibit trie over
     * the routes would walk (net::PrefixTree::matchLongest()).
     */
    const SnapshotRoute *
    lookup(net::Ipv4Address addr, int *visited = nullptr) const
    {
        const uint32_t *index = index_.matchLongest(addr, visited);
        return index ? &routes_[*index] : nullptr;
    }

    /**
     * Visit every route covered by @p range in ascending prefix
     * order, stopping after @p limit routes (0 = unlimited).
     *
     * @return Number of routes visited.
     */
    template <typename Fn>
    size_t
    scan(const net::Prefix &range, size_t limit, Fn &&fn) const
    {
        // Covered routes all have addresses inside [range.address(),
        // range broadcast]; within that slice, entries shorter than
        // the range (e.g. 0.0.0.0/0 when scanning 10/8) share its
        // base address but are not covered, hence the covers() check.
        size_t visited = 0;
        for (size_t i = firstInRange(range); i < routes_.size(); ++i) {
            const SnapshotRoute &route = routes_[i];
            if (!rangeSpans(range, route.prefix))
                break;
            if (!range.covers(route.prefix))
                continue;
            fn(route);
            if (++visited == limit)
                break;
        }
        return visited;
    }

    /** Per-peer best-path counts, sorted by peer id. */
    const std::vector<PeerTableSummary> &
    peerSummaries() const
    {
        return peers_;
    }

    /** All routes, sorted by (address, length). */
    const std::vector<SnapshotRoute> &routes() const { return routes_; }

    /** Build-time FNV-1a over the epoch and every route key. */
    uint64_t checksum() const { return checksum_; }

    /**
     * Recompute the checksum from the visible content and compare.
     * Immutability makes this tautological — which is the point: a
     * torn or half-published snapshot could not pass.
     */
    bool verifyChecksum() const;

  private:
    /** Index of the first route with address >= range.address(). */
    size_t firstInRange(const net::Prefix &range) const;
    /** Route address still inside the range's address span? */
    static bool rangeSpans(const net::Prefix &range,
                           const net::Prefix &prefix);
    /** FNV-1a over epoch + route keys. */
    static uint64_t computeChecksum(
        uint64_t epoch, const std::vector<SnapshotRoute> &routes);

    uint64_t epoch_ = 0;
    uint64_t publishedAtNs_ = 0;
    uint64_t checksum_ = 0;
    std::vector<SnapshotRoute> routes_;
    /** Prefix -> position in routes_. */
    net::PrefixTree<uint32_t> index_;
    std::vector<PeerTableSummary> peers_;
};

} // namespace bgpbench::serve

#endif // BGPBENCH_SERVE_SNAPSHOT_HH
