/**
 * @file
 * Packs pending route changes into a minimal sequence of UPDATE
 * messages.
 *
 * An UPDATE carries one attribute block, so announcements are grouped
 * by attribute set; each group is chunked to respect the 4096-byte
 * message limit (RFC 4271 section 4.1) and, optionally, an explicit
 * prefixes-per-message cap — the knob the benchmark uses to emit
 * "small" (1 prefix) versus "large" (500 prefixes) packets (Table I).
 *
 * Grouping is indexed: attribute sets resolve to their group through a
 * hash index (content hash, then value equality with the pointer fast
 * path), and every pending prefix records its location so superseding
 * a pending change is O(1). The full-table advertisement path of the
 * paper's scenarios used to scan O(groups × prefixes); both scans are
 * gone.
 *
 * A speaker keeps one builder per peer and flushes it after every
 * inbound UPDATE, so build() resets the builder's storage instead of
 * freeing it: the group slots, their prefix vectors and both indexes
 * (net::FlatIndex) are reused by the next flush, and queueing a change
 * allocates nothing once they have grown to the working-set size. A
 * flush that leaves more than retainBytes of storage behind (a
 * full-table advertisement) sheds it, so what a builder keeps between
 * flushes stays bounded.
 */

#ifndef BGPBENCH_BGP_UPDATE_BUILDER_HH
#define BGPBENCH_BGP_UPDATE_BUILDER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bgp/message.hh"
#include "bgp/path_attributes.hh"
#include "net/flat_index.hh"
#include "net/prefix.hh"

namespace bgpbench::bgp
{

/** Packing policy for UpdateBuilder. */
struct PackingOptions
{
    /**
     * Hard cap on prefixes per UPDATE (announcements and withdrawals
     * counted separately). 0 means "as many as fit in 4096 bytes".
     */
    size_t maxPrefixesPerUpdate = 0;
};

/**
 * Accumulates announcements and withdrawals, then emits packed
 * UPDATE messages.
 *
 * A later withdraw of a pending announcement (or vice versa)
 * supersedes it, so one flush never contains contradictory state for
 * a prefix.
 */
class UpdateBuilder
{
  public:
    explicit UpdateBuilder(PackingOptions options = {})
        : options_(options)
    {}

    /** Queue an announcement of @p prefix with @p attrs. */
    void announce(const net::Prefix &prefix, PathAttributesPtr attrs);

    /** Queue a withdrawal of @p prefix. */
    void withdraw(const net::Prefix &prefix);

    /** True if nothing is queued. */
    bool empty() const { return pending_.size() == 0; }

    /** Number of queued transactions. */
    size_t pendingTransactions() const { return pending_.size(); }

    /**
     * Append the queued changes to @p out as packed UPDATEs and reset
     * the builder. Withdrawals are emitted first (they free table
     * space on the receiver), then one run of messages per attribute
     * group in group-creation order; within a group, prefixes keep
     * announcement order. A caller that flushes repeatedly passes the
     * same vector each time, so its capacity is reused too.
     */
    void build(std::vector<UpdateMessage> &out);

    /** build() into a fresh vector, for one-shot builders. */
    std::vector<UpdateMessage>
    build()
    {
        std::vector<UpdateMessage> out;
        build(out);
        return out;
    }

    /**
     * Storage a flush may leave behind for reuse; a flush that would
     * keep more (a full-table advertisement) frees it instead. The
     * speaker holds its own flush scratch to the same limit. The
     * largest flush of the host-time benchmark's workloads leaves
     * ~42 KiB (EXPERIMENTS.md), so only tables of thousands of
     * prefixes shed.
     */
    static constexpr size_t retainBytes = 256 * 1024;

    /** Heap bytes currently held for reuse by later flushes. */
    size_t memoryBytes() const;

  private:
    /**
     * One attribute group. Superseded prefixes are tombstoned (their
     * alive flag cleared) rather than erased, preserving both O(1)
     * supersession and the emission order of the surviving prefixes.
     */
    struct Group
    {
        PathAttributesPtr attributes;
        std::vector<net::Prefix> prefixes;
        /** Parallel to prefixes; 0 = superseded, skip at build(). */
        std::vector<uint8_t> alive;
        size_t deadCount = 0;
    };

    /** Where a pending prefix currently lives. */
    struct Location
    {
        /** Group index, or kWithdrawal. */
        uint32_t group = 0;
        /** Slot within the group's (or withdrawal) vector. */
        uint32_t slot = 0;
    };

    static constexpr uint32_t kWithdrawal = ~uint32_t(0);

    /** Find or create the group for @p attrs; returns its index. */
    uint32_t groupFor(const PathAttributesPtr &attrs);

    /** Clear the alive flag of the change queued at @p location. */
    void tombstone(const Location &location);

    /** Empty the builder, keeping (or, over retainBytes, freeing) its
     *  storage. */
    void reset();

    PackingOptions options_;
    /**
     * Groups in creation order. Only the first groupCount_ are in
     * use; the rest are cleared slots kept for their capacity.
     */
    std::vector<Group> groups_;
    size_t groupCount_ = 0;
    /** Attribute content hash -> index into groups_. */
    net::FlatIndex<uint32_t> groupIndex_;
    std::vector<net::Prefix> withdrawals_;
    /** Parallel to withdrawals_; 0 = superseded. */
    std::vector<uint8_t> withdrawalsAlive_;
    size_t deadWithdrawals_ = 0;
    /** Every pending prefix (exact key) and where it sits. */
    net::FlatIndex<Location> pending_;
};

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_UPDATE_BUILDER_HH
