/**
 * @file
 * SharedPrefixTable: one prefix-tree key structure per speaker, shared
 * by every RIB as slot-indexed value columns.
 *
 * PR 2 shared attribute *values* across RIBs by interning; this shares
 * the *key set*. A speaker with N established peers holds the same ~1M
 * prefixes in N Adj-RIBs-In, the Loc-RIB, and N Adj-RIBs-Out — 2N+1
 * copies of every key under the hash-map design. Here the speaker owns
 * a single PrefixTree mapping each live prefix to a small integer
 * slot; each RIB then stores only a dense per-slot value column (a
 * vector indexed by slot plus a presence bitset). Adding a peer costs
 * one value column, not another copy of the key set, and the decision
 * sweep resolves a prefix to its slot once and reads every peer's
 * entry by direct indexing.
 *
 * Slots are reference counted (one count per column entry holding the
 * slot) and recycled through a free list, so column indices stay dense
 * under churn and columns never need compaction.
 */

#ifndef BGPBENCH_BGP_PREFIX_TABLE_HH
#define BGPBENCH_BGP_PREFIX_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/prefix.hh"
#include "net/prefix_tree.hh"

namespace bgpbench::bgp
{

/**
 * The shared prefix -> slot table one speaker's RIBs sit on.
 *
 * A slot is live while any column references it (resolve/addRef/
 * release are the column-side protocol); releasing the last reference
 * erases the prefix from the tree and recycles the slot. slotSpan()
 * only grows, so a column sized to slotSpan() can always be indexed
 * by any live slot.
 */
class SharedPrefixTable
{
  public:
    using Slot = uint32_t;
    static constexpr Slot npos = ~Slot(0);

    /** The slot of @p prefix, or npos if not present. */
    Slot
    find(const net::Prefix &prefix) const
    {
        const Slot *slot = tree_.find(prefix);
        return slot ? *slot : npos;
    }

    /**
     * Find-or-create the slot for @p prefix with one tree walk, without
     * taking a reference. A created slot starts with none: the caller
     * must addRef() it before the next release() or resolve() on this
     * table. Every addRef must be balanced by one release.
     */
    Slot resolve(const net::Prefix &prefix);

    /** Take a reference on a slot from resolve() or a live slot. */
    void
    addRef(Slot slot)
    {
        ++slotRefs_[slot];
    }

    /**
     * Drop one reference; the last release erases the prefix from the
     * tree and recycles the slot.
     */
    void
    release(Slot slot)
    {
        if (--slotRefs_[slot] == 0) {
            tree_.erase(slotPrefix_[slot]);
            freeSlots_.push_back(slot);
        }
    }

    /** The prefix a live slot stands for. */
    const net::Prefix &
    prefixOf(Slot slot) const
    {
        return slotPrefix_[slot];
    }

    /** Number of live prefixes. */
    size_t prefixCount() const { return tree_.size(); }

    /**
     * One past the largest slot ever issued; columns indexed by slot
     * must be at least this long. Monotonic.
     */
    size_t slotSpan() const { return slotPrefix_.size(); }

    /**
     * Capacity the slot arrays have actually reserved; columns size
     * to this so column growth tracks the table's own growth policy
     * (exactly n after reserve(n), geometric otherwise).
     */
    size_t slotCapacity() const { return slotPrefix_.capacity(); }

    /**
     * Visit every live (prefix, slot) in ascending (address, length)
     * order — the guaranteed iteration order all RIB forEach walks
     * inherit.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        tree_.forEach(fn);
    }

    /** Pre-size tree and slot arrays for @p prefixes entries. */
    void
    reserve(size_t prefixes)
    {
        tree_.reserve(prefixes);
        slotPrefix_.reserve(prefixes);
        slotRefs_.reserve(prefixes);
    }

    /** Bytes held by the tree arena and the slot side-arrays. */
    size_t
    memoryBytes() const
    {
        return tree_.memoryBytes() +
               slotPrefix_.capacity() * sizeof(net::Prefix) +
               slotRefs_.capacity() * sizeof(uint32_t) +
               freeSlots_.capacity() * sizeof(Slot);
    }

    /** Live tree nodes (prefix entries + compression joints). */
    size_t nodeCount() const { return tree_.nodeCount(); }

  private:
    net::PrefixTree<Slot> tree_;
    /** slot -> prefix (needed by release() to erase from the tree). */
    std::vector<net::Prefix> slotPrefix_;
    /** slot -> number of column entries holding it. */
    std::vector<uint32_t> slotRefs_;
    std::vector<Slot> freeSlots_;
};

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_PREFIX_TABLE_HH
