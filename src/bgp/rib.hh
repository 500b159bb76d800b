/**
 * @file
 * The three Routing Information Bases of RFC 4271 section 3.2:
 * Adj-RIB-In (per peer), Loc-RIB, and Adj-RIB-Out (per peer).
 *
 * Storage: the speaker owns one bgp::SharedPrefixTable holding every
 * live prefix exactly once; each RIB stores only a slot-indexed value
 * column (dense vector + presence bitset). N peers cost N columns over
 * one key set instead of 2N+1 copies of it, and the decision sweep
 * reads each peer's entry by direct slot indexing. Standalone RIBs
 * (tests, tools) own a private table.
 *
 * forEach visits entries in ascending (address, length) prefix order,
 * the radix tree's natural walk order. Consumers (snapshots, table
 * dumps) rely on this and do not sort.
 */

#ifndef BGPBENCH_BGP_RIB_HH
#define BGPBENCH_BGP_RIB_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "bgp/path_attributes.hh"
#include "bgp/prefix_table.hh"
#include "bgp/route.hh"
#include "net/prefix.hh"

namespace bgpbench::bgp
{

namespace detail
{

/**
 * The storage engine shared by the three RIB classes: a value column
 * over a SharedPrefixTable.
 *
 * Column entries hold one table reference per present slot
 * (resolve/addRef on set, release on erase/clear), so a prefix leaves
 * the shared tree exactly when the last RIB drops it. The destructor
 * deliberately does NOT release slots: RIBs and their table are torn
 * down together (speaker destruction), and member destruction order
 * must not matter.
 */
template <typename Entry>
class RibStore
{
  public:
    using Slot = SharedPrefixTable::Slot;
    static constexpr Slot npos = SharedPrefixTable::npos;

    /** Standalone store over a private table. */
    RibStore()
        : owned_(std::make_unique<SharedPrefixTable>()),
          table_(owned_.get())
    {}

    /** Column over @p table, which must outlive the store. */
    explicit RibStore(SharedPrefixTable &table) : table_(&table) {}

    RibStore(RibStore &&) = default;
    RibStore &operator=(RibStore &&) = default;

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    const Entry *
    find(const net::Prefix &prefix) const
    {
        return findAt(table_->find(prefix));
    }

    /** O(1) column read by pre-resolved slot; npos-safe. */
    const Entry *
    findAt(Slot slot) const
    {
        if (slot == npos || slot >= present_.size() || !present_[slot])
            return nullptr;
        return &column_[slot];
    }

    /** Result of a find-or-create. */
    struct Obtained
    {
        Slot slot;
        /** Valid until the next mutation of this store or the table. */
        Entry *entry;
        bool inserted;
    };

    /** Mutable find-or-create with a single tree walk. */
    Obtained
    obtain(const net::Prefix &prefix)
    {
        return obtainAt(table_->resolve(prefix));
    }

    /**
     * Find-or-create by a slot from resolve() or a live slot (takes
     * this column's reference on miss without walking the tree).
     */
    Obtained
    obtainAt(Slot slot)
    {
        if (slot < present_.size() && present_[slot])
            return {slot, &column_[slot], false};
        table_->addRef(slot);
        return {slot, occupy(slot), true};
    }

    /**
     * Erase by prefix.
     * @return The slot the entry occupied, or npos if there was none.
     *         When this dropped the slot's last reference the slot is
     *         already free: every column reads it as absent until a
     *         later resolve() reuses it.
     */
    Slot
    erase(const net::Prefix &prefix)
    {
        Slot slot = table_->find(prefix);
        return eraseAt(slot) ? slot : npos;
    }

    /** Erase by pre-resolved slot; npos-safe. */
    bool
    eraseAt(Slot slot)
    {
        if (slot == npos || slot >= present_.size() || !present_[slot])
            return false;
        column_[slot] = Entry{};
        present_[slot] = false;
        --count_;
        table_->release(slot);
        return true;
    }

    void
    clear()
    {
        for (Slot slot = 0; slot < present_.size(); ++slot) {
            if (!present_[slot])
                continue;
            column_[slot] = Entry{};
            present_[slot] = false;
            table_->release(slot);
        }
        count_ = 0;
    }

    /** Pre-size the table and the column for @p n entries. */
    void
    reserve(size_t n)
    {
        table_->reserve(n);
        column_.reserve(n);
        present_.reserve(n);
    }

    /**
     * Visit every entry as fn(prefix, entry) in ascending
     * (address, length) order. Templated so full-table walks inline
     * the visitor.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        forEachWithSlot([&](const net::Prefix &prefix, Slot,
                            const Entry &entry) { fn(prefix, entry); });
    }

    /**
     * Like forEach but also passes the shared-table slot:
     * fn(prefix, slot, entry). The speaker's full-table walks use the
     * slot for O(1) Adj-RIB-Out column writes.
     */
    template <typename Fn>
    void
    forEachWithSlot(Fn &&fn) const
    {
        table_->forEach([&](const net::Prefix &prefix, Slot slot) {
            if (slot < present_.size() && present_[slot])
                fn(prefix, slot, column_[slot]);
        });
    }

    /**
     * Bytes of heap this store holds (excluding the shared table —
     * count that once per speaker).
     */
    size_t
    memoryBytes() const
    {
        return column_.capacity() * sizeof(Entry) +
               present_.capacity() / 8;
    }

  private:
    /** Mark @p slot present and return its (reset) entry. */
    Entry *
    occupy(Slot slot)
    {
        if (slot >= column_.size()) {
            // Grow to the table's own reservation so a pre-sized load
            // gets exactly-sized columns (no 2x growth slack).
            size_t grow = std::max(table_->slotCapacity(),
                                   size_t(slot) + 1);
            column_.resize(grow);
            present_.resize(grow, false);
        }
        present_[slot] = true;
        ++count_;
        column_[slot] = Entry{};
        return &column_[slot];
    }

    /** Non-null only for standalone default-constructed stores. */
    std::unique_ptr<SharedPrefixTable> owned_;
    SharedPrefixTable *table_ = nullptr;
    /** Slot-indexed values + presence bitset. */
    std::vector<Entry> column_;
    std::vector<bool> present_;
    size_t count_ = 0;
};

} // namespace detail

/**
 * Adj-RIB-In: the unprocessed routes one peer has advertised to us.
 *
 * Each entry stores the attributes exactly as received plus the
 * import-policy result cached at receipt time (null when the policy
 * rejected the route), which is what the decision process consumes.
 */
class AdjRibIn
{
  public:
    using Slot = SharedPrefixTable::Slot;

    struct Entry
    {
        /** Attributes as received on the wire. */
        PathAttributesPtr received;
        /** After import policy; null if the route was rejected. */
        PathAttributesPtr effective;
    };

    /** What update() did. */
    struct Write
    {
        /**
         * The prefix's shared-table slot, live while this RIB holds
         * the route: the speaker threads it through the decision so
         * the tree is walked once per NLRI.
         */
        Slot slot = SharedPrefixTable::npos;
        /** The stored entry changed. */
        bool changed = false;
        /**
         * An existing route's received attributes changed value (the
         * "attribute change" flap of RFC 2439 damping).
         */
        bool attributeChange = false;
    };

    AdjRibIn() = default;
    /** Column over the speaker's shared table. */
    explicit AdjRibIn(SharedPrefixTable &table) : store_(table) {}

    /** Insert or replace the route for @p prefix. */
    Write update(const net::Prefix &prefix, PathAttributesPtr received,
                 PathAttributesPtr effective);

    /**
     * Remove the route for @p prefix.
     * @return The slot the route occupied, or npos if none was
     *         present. The slot may already be free (see
     *         detail::RibStore::erase): it is only good for reads and
     *         removals until the next resolve on the table.
     */
    Slot withdraw(const net::Prefix &prefix) { return store_.erase(prefix); }

    /** The entry for @p prefix, or nullptr. */
    const Entry *find(const net::Prefix &prefix) const;

    /**
     * The entry by pre-resolved shared-table slot (the O(1)
     * decision-sweep read; npos-safe).
     */
    const Entry *findAt(Slot slot) const { return store_.findAt(slot); }

    size_t size() const { return store_.size(); }
    bool empty() const { return store_.empty(); }
    void clear() { store_.clear(); }
    void reserve(size_t n) { store_.reserve(n); }
    size_t memoryBytes() const { return store_.memoryBytes(); }

    /**
     * Visit every entry in ascending (address, length) prefix order
     * (see file comment). Inlined visitor.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        store_.forEach(std::forward<Fn>(fn));
    }

  private:
    detail::RibStore<Entry> store_;
};

/**
 * Loc-RIB: the routes selected by the local decision process, one per
 * prefix, with provenance for tie-break bookkeeping.
 */
class LocRib
{
  public:
    using Slot = SharedPrefixTable::Slot;

    struct Entry
    {
        Candidate best;
        /**
         * The rest of the ECMP group (maximum-paths > 1 only): the
         * candidates multipath-equivalent to best, in the decision
         * process's deterministic group order. Always empty in
         * single-path mode.
         */
        std::vector<Candidate> multipath;
    };

    /** What a (multipath) selection changed. */
    struct SelectOutcome
    {
        /** The best path's attributes or provenance changed. */
        bool bestChanged = false;
        /** Best or the multipath set changed (Loc-RIB content). */
        bool groupChanged = false;
    };

    LocRib() = default;
    /** Column over the speaker's shared table. */
    explicit LocRib(SharedPrefixTable &table) : store_(table) {}

    /**
     * Install/replace the best route for @p prefix.
     * @return True if the selected attributes actually changed.
     */
    bool select(const net::Prefix &prefix, Candidate best);

    /**
     * Install/replace the route group of a live slot: best plus, with
     * maximum-paths > 1, the ECMP members beyond it in decision group
     * order. With an empty @p multipath this is select() by slot
     * (same change detection).
     */
    SelectOutcome selectAt(Slot slot, Candidate best,
                           std::vector<Candidate> multipath = {});

    /**
     * Remove the entry at @p slot entirely (no candidate remains);
     * npos-safe.
     * @return True if an entry was removed.
     */
    bool removeAt(Slot slot) { return store_.eraseAt(slot); }

    const Entry *find(const net::Prefix &prefix) const;

    /** The entry by pre-resolved slot (npos-safe). */
    const Entry *findAt(Slot slot) const { return store_.findAt(slot); }

    size_t size() const { return store_.size(); }
    bool empty() const { return store_.empty(); }
    void clear() { store_.clear(); }
    void reserve(size_t n) { store_.reserve(n); }
    size_t memoryBytes() const { return store_.memoryBytes(); }

    /** Ordered walk; see AdjRibIn::forEach. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        store_.forEach(std::forward<Fn>(fn));
    }

    /** Ordered walk carrying the shared-table slot:
     *  fn(prefix, slot, entry). */
    template <typename Fn>
    void
    forEachWithSlot(Fn &&fn) const
    {
        store_.forEachWithSlot(std::forward<Fn>(fn));
    }

  private:
    /** Store a selection in @p obtained's entry; report the change. */
    static SelectOutcome
    assign(detail::RibStore<Entry>::Obtained obtained, Candidate best,
           std::vector<Candidate> multipath);

    detail::RibStore<Entry> store_;
};

/**
 * Adj-RIB-Out: what we have advertised to one peer. Storing it lets
 * the speaker suppress no-op announcements and generate correct
 * withdrawals (RFC 4271 section 9.2).
 */
class AdjRibOut
{
  public:
    using Slot = SharedPrefixTable::Slot;

    AdjRibOut() = default;
    /** Column over the speaker's shared table. */
    explicit AdjRibOut(SharedPrefixTable &table) : store_(table) {}

    /**
     * Record an advertisement.
     * @return True if this differs from what was previously advertised
     *         (i.e., an UPDATE must actually be sent).
     */
    bool advertise(const net::Prefix &prefix, PathAttributesPtr attrs);

    /**
     * advertise() with a pre-resolved shared-table slot (the O(1)
     * fan-out write). @p slot must be live: some column of the table
     * holds its prefix.
     */
    bool advertiseAt(Slot slot, PathAttributesPtr attrs);

    /**
     * Record a withdrawal.
     * @return True if the prefix had been advertised (i.e., a
     *         withdrawal must actually be sent).
     */
    bool withdraw(const net::Prefix &prefix);

    /** withdraw() by pre-resolved slot (npos-safe). */
    bool withdrawAt(Slot slot) { return store_.eraseAt(slot); }

    const PathAttributesPtr *find(const net::Prefix &prefix) const;

    size_t size() const { return store_.size(); }
    bool empty() const { return store_.empty(); }
    void clear() { store_.clear(); }
    void reserve(size_t n) { store_.reserve(n); }
    size_t memoryBytes() const { return store_.memoryBytes(); }

    /** Ordered walk; see AdjRibIn::forEach. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        store_.forEach(std::forward<Fn>(fn));
    }

  private:
    /** Store @p attrs in @p obtained's entry unless it holds that
     *  value already. */
    static bool
    assign(detail::RibStore<PathAttributesPtr>::Obtained obtained,
           PathAttributesPtr attrs);

    detail::RibStore<PathAttributesPtr> store_;
};

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_RIB_HH
