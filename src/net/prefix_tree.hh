/**
 * @file
 * Compressed keyed prefix tree: a path-compressed binary radix trie
 * over (address, length) with slab/arena node storage. It is the
 * only prefix structure in the code base: the shared RIB prefix
 * table, the FIB (fib::ForwardingTable), the serve snapshot index
 * (serve::RibSnapshot) and compiled prefix-lists (bgp::PrefixList)
 * all sit on it.
 *
 * A unibit trie expands one node per bit of every inserted prefix
 * (fine for small tables, hostile at internet scale). PrefixTree
 * keeps exactly one node per stored prefix plus at most one branching
 * node per pair of diverging sub-tries — the classic Patricia shape —
 * and places all nodes in one contiguous arena addressed by 32-bit
 * indices. That brings three properties tables of 1M+ prefixes need:
 *
 *  - O(length) insert/lookup/erase with at most 33 node visits, no
 *    per-bit allocation, and no rehash spikes;
 *  - ~20 bytes per node for small values versus a ~64-byte malloc
 *    chunk plus bucket slot per std::unordered_map entry;
 *  - deterministic in-prefix-order iteration: forEach visits prefixes
 *    in exact ascending (address, length) order — the order
 *    Prefix::operator<=> defines — so snapshot/dump consumers no
 *    longer sort.
 *
 * Longest-prefix match still reports the work a unibit trie would do
 * (see matchLongest()), because the simulated forwarding engine
 * charges its lookup cost per unibit node.
 *
 * Erase returns nodes to an intrusive free list threaded through the
 * arena; the arena itself only grows (capacity is the high-water mark
 * of live + free nodes), which is the right trade for tables whose
 * size is workload-bounded.
 *
 * A tree holding rootMinKeys keys or more also keeps a direct-indexed
 * root, the first level of DIR-24-8 (Gupta, Lin & McKeown, INFOCOM
 * 1998) and Poptrie (Asai & Ohara, SIGCOMM 2015): 65 536 entries, one
 * per /16, each naming the deepest node of length <= 16 that covers
 * that /16 and the deepest such node that holds a value. find(),
 * findOrInsert(), erase() and matchLongest() of keys and addresses of
 * length >= 16 start at that node instead of node 0, which skips most
 * of the dependent node loads of a descent through a full table. The
 * start node lies on the walk from node 0, so the rest of the walk is
 * the same one: node allocation, forEach() order and the unibit count
 * matchLongest() reports do not depend on the root, and matchLongest()
 * takes the best match above the start node from the entry.
 *
 * The root is built when an insert reaches rootMinKeys keys (reserve()
 * for that many allocates it up front, ahead of the arena) and dropped
 * when a draining tree falls below rootDropKeys. Prefix-lists,
 * topology speakers and small snapshots stay below the threshold and
 * pay nothing for it: all root upkeep is out of line behind one
 * root_.empty() test, so their insert, erase and prune stay small
 * enough to inline into callers. Only mutating calls build or change
 * the root; const lookups never write, so readers may share one tree
 * across threads.
 */

#ifndef BGPBENCH_NET_PREFIX_TREE_HH
#define BGPBENCH_NET_PREFIX_TREE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/prefix.hh"

namespace bgpbench::net
{

/**
 * Path-compressed binary radix trie mapping Prefix -> V.
 *
 * Invariants:
 *  - node 0 is the root and always exists (prefix 0.0.0.0/0, value
 *    optional);
 *  - every node's prefix strictly covers both children's prefixes, so
 *    depth is bounded by 33;
 *  - a non-root node either holds a value or has two children
 *    (single-child valueless nodes are spliced out on erase), which
 *    bounds total nodes at 2 * size() + 1.
 *
 * Pointers/references returned by find()/insert() are invalidated by
 * any subsequent mutation (the arena may grow or recycle nodes).
 */
template <typename V>
class PrefixTree
{
  public:
    /** "No node" sentinel for child links and the free list head. */
    static constexpr uint32_t npos = 0xffffffffu;

    /**
     * Keys at which the tree builds its direct-indexed root (see the
     * file comment). Below it a walk from node 0 is short, and the
     * root's 512 KiB would outweigh the arena.
     */
    static constexpr size_t rootMinKeys = 4096;

    /**
     * A draining tree drops its root below this many keys. The gap to
     * rootMinKeys keeps a tree that hovers at the threshold from
     * rebuilding the root on every step.
     */
    static constexpr size_t rootDropKeys = rootMinKeys / 2;

    PrefixTree() { clear(); }

    /**
     * Insert or replace the value for @p prefix.
     *
     * @param inserted Optional out-flag: true if the prefix was new.
     * @return Pointer to the stored value (valid until next mutation).
     */
    template <typename U>
    V *
    insert(const Prefix &prefix, U &&value, bool *inserted = nullptr)
    {
        bool fresh = false;
        V *slot = findOrInsert(prefix, &fresh);
        *slot = std::forward<U>(value);
        if (inserted)
            *inserted = fresh;
        return slot;
    }

    /**
     * Find the value for @p prefix, default-constructing it first if
     * absent; an existing value is left untouched (try_emplace
     * semantics, needed by callers that allocate the value only on
     * miss).
     */
    V *
    findOrInsert(const Prefix &prefix, bool *inserted = nullptr)
    {
        const uint32_t bits = prefix.address().toUint32();
        const int len = prefix.length();
        uint32_t cur = startNode(bits, len);
        uint32_t joint = npos;
        uint32_t fresh = npos;
        for (;;) {
            if (arena_[cur].len == len) {
                // The walk maintains "arena_[cur] covers prefix", so
                // equal lengths mean equal prefixes.
                if (arena_[cur].hasValue) {
                    if (inserted)
                        *inserted = false;
                    return &arena_[cur].value;
                }
                arena_[cur].hasValue = true;
                fresh = cur;
                break;
            }
            const int branch = bitAt(bits, arena_[cur].len);
            const uint32_t childIdx = arena_[cur].child[branch];
            if (childIdx == npos) {
                fresh = allocNode(bits, uint8_t(len), true);
                arena_[cur].child[branch] = fresh;
                break;
            }
            const uint32_t childBits = arena_[childIdx].bits;
            const int childLen = arena_[childIdx].len;
            int common = commonPrefixLength(childBits, bits);
            if (common > childLen)
                common = childLen;
            if (common > len)
                common = len;
            if (common == childLen) {
                // Child's prefix covers the target: descend.
                cur = childIdx;
                continue;
            }
            if (common == len) {
                // Target sits between cur and child: splice it in as
                // the child's new parent.
                const int down = bitAt(childBits, len);
                fresh = allocNode(bits, uint8_t(len), true);
                arena_[fresh].child[down] = childIdx;
                arena_[cur].child[branch] = fresh;
                break;
            }
            // Paths diverge below cur: split with a valueless joint at
            // the common length, with child and the new leaf below it.
            joint = allocNode(bits & maskForLength(common), uint8_t(common),
                              false);
            fresh = allocNode(bits, uint8_t(len), true);
            arena_[joint].child[bitAt(childBits, common)] = childIdx;
            arena_[joint].child[bitAt(bits, common)] = fresh;
            arena_[cur].child[branch] = joint;
            break;
        }
        ++size_;
        if (!root_.empty())
            rootInserted(joint, fresh);
        else if (size_ >= rootMinKeys)
            buildRoot();
        if (inserted)
            *inserted = true;
        return &arena_[fresh].value;
    }

    /**
     * Remove the value for @p prefix.
     * @return True if a value was present.
     */
    bool
    erase(const Prefix &prefix)
    {
        const uint32_t bits = prefix.address().toUint32();
        const int len = prefix.length();
        // Explicit parent stack: depth <= 33 by the covers-invariant.
        uint32_t stack[33];
        int depth = 0;
        uint32_t cur = startNode(bits, len);
        while (arena_[cur].len != len) {
            const uint32_t childIdx =
                arena_[cur].child[bitAt(bits, arena_[cur].len)];
            if (childIdx == npos)
                return false;
            const Node &child = arena_[childIdx];
            if (child.len > len ||
                ((child.bits ^ bits) & maskForLength(child.len)) != 0)
                return false;
            stack[depth++] = cur;
            cur = childIdx;
        }
        if (!arena_[cur].hasValue)
            return false;
        arena_[cur].hasValue = false;
        arena_[cur].value = V{};
        --size_;
        if (root_.empty())
            prune<false>(cur, stack, depth);
        else
            rootErased(cur, stack, depth);
        return true;
    }

    /** The stored value for @p prefix, or nullptr. */
    const V *
    find(const Prefix &prefix) const
    {
        const uint32_t idx = findNode(prefix);
        return idx == npos ? nullptr : &arena_[idx].value;
    }

    V *
    find(const Prefix &prefix)
    {
        const uint32_t idx = findNode(prefix);
        return idx == npos ? nullptr : &arena_[idx].value;
    }

    /**
     * Longest-prefix match for @p addr: the value of the most specific
     * stored prefix that contains the address, or nullptr when none
     * does.
     *
     * @param visited Optional out-parameter receiving 1 plus the depth
     *        a unibit trie over the same live keys would reach for
     *        @p addr, i.e. 1 + max over stored prefixes k of
     *        min(k.length, common leading bits of k and addr). The
     *        walk reads it off where it stops: the node's length when
     *        there is no child that way, the common prefix with the
     *        next child's label when that label diverges, or 32 at a
     *        host route. The simulated forwarding engine charges its
     *        per-node lookup cost on this count.
     */
    const V *
    matchLongest(Ipv4Address addr, int *visited = nullptr) const
    {
        const uint32_t bits = addr.toUint32();
        const V *best = nullptr;
        uint32_t cur = 0;
        if (!root_.empty()) {
            const RootEntry &entry = root_[bits >> (32 - rootBits)];
            cur = entry.cover;
            if (entry.best != npos)
                best = &arena_[entry.best].value;
        }
        int depth = 0;
        for (;;) {
            const Node &node = arena_[cur];
            if (node.hasValue)
                best = &node.value;
            depth = node.len;
            if (node.len == 32)
                break;
            const uint32_t childIdx = node.child[bitAt(bits, node.len)];
            if (childIdx == npos)
                break;
            const Node &child = arena_[childIdx];
            const uint32_t diff = child.bits ^ bits;
            if ((diff & maskForLength(child.len)) != 0) {
                // Every key below child shares exactly the label's
                // first countl_zero(diff) < child.len bits with addr.
                depth = std::countl_zero(diff);
                break;
            }
            cur = childIdx;
        }
        if (visited)
            *visited = depth + 1;
        return best;
    }

    /**
     * Call fn(length, value) for every stored prefix that covers
     * @p prefix (equal or shorter, matching leading bits), root first.
     * Only the nodes on the walk towards @p prefix are touched, which
     * makes a compiled prefix-list lookup O(32) instead of
     * O(entries).
     */
    template <typename Fn>
    void
    forEachCovering(const Prefix &prefix, Fn &&fn) const
    {
        const uint32_t bits = prefix.address().toUint32();
        const int len = prefix.length();
        uint32_t cur = 0;
        for (;;) {
            const Node &node = arena_[cur];
            if (node.hasValue)
                fn(int(node.len), node.value);
            if (node.len == len)
                return;
            const uint32_t childIdx = node.child[bitAt(bits, node.len)];
            if (childIdx == npos)
                return;
            const Node &child = arena_[childIdx];
            if (child.len > len ||
                ((child.bits ^ bits) & maskForLength(child.len)) != 0)
                return;
            cur = childIdx;
        }
    }

    /**
     * Visit every (prefix, value) in ascending (address, length)
     * order — exactly the order Prefix::operator<=> defines. A node's
     * own prefix precedes everything in its subtrees (it is shorter at
     * the same address), and the child-0 subtree's addresses all
     * precede the child-1 subtree's, so a pre-order walk is sorted.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        walk(0, fn);
    }

    /** Number of stored prefixes. */
    size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** Live arena nodes, including valueless joints and the root. */
    size_t nodeCount() const { return liveNodes_; }

    /**
     * Sum over stored keys of the nodes find() visits for each, from
     * its start node down to the key's own node: a deterministic count
     * of lookup work, computed in one O(size()) walk.
     */
    size_t
    descentNodes() const
    {
        uint32_t path[33];
        return descend(0, 0, path);
    }

    /**
     * Drop every entry and the direct-indexed root; keeps the arena's
     * capacity.
     */
    void
    clear()
    {
        arena_.clear();
        arena_.push_back(Node{});
        root_ = std::vector<RootEntry>();
        freeHead_ = npos;
        size_ = 0;
        liveNodes_ = 1;
    }

    /**
     * Pre-size the arena for @p prefixes entries (2n+1 nodes covers
     * the worst-case joint count), avoiding growth reallocations
     * during a bulk load. A tree sized for at least rootMinKeys
     * entries also allocates its root here, ahead of the arena; the
     * root is still filled in when the rootMinKeys-th key arrives.
     */
    void
    reserve(size_t prefixes)
    {
        if (prefixes >= rootMinKeys)
            root_.reserve(size_t(1) << rootBits);
        arena_.reserve(2 * prefixes + 1);
    }

    /**
     * Bytes held by the arena (capacity, i.e. high-water) and, while
     * it exists, the direct-indexed root.
     */
    size_t
    memoryBytes() const
    {
        return arena_.capacity() * sizeof(Node) +
               root_.capacity() * sizeof(RootEntry) + sizeof(*this);
    }

  private:
    struct Node
    {
        /** Canonical prefix bits (host order, low bits zero). */
        uint32_t bits = 0;
        uint32_t child[2] = {npos, npos};
        uint8_t len = 0;
        bool hasValue = false;
        V value{};
    };

    /** Leading address bits the direct-indexed root resolves. */
    static constexpr int rootBits = 16;

    /** One /16's entry in the direct-indexed root. */
    struct RootEntry
    {
        /** The deepest node of length <= rootBits covering the /16. */
        uint32_t cover;
        /** The deepest such node holding a value, or npos. */
        uint32_t best;
    };

    /** Bit @p pos of @p bits counted from the MSB (pos in [0, 31]). */
    static int
    bitAt(uint32_t bits, int pos)
    {
        return int((bits >> (31 - pos)) & 1u);
    }

    /** Length of the common prefix of @p a and @p b, up to 32. */
    static int
    commonPrefixLength(uint32_t a, uint32_t b)
    {
        return a == b ? 32 : std::countl_zero(a ^ b);
    }

    uint32_t
    allocNode(uint32_t bits, uint8_t len, bool hasValue)
    {
        uint32_t idx;
        if (freeHead_ != npos) {
            idx = freeHead_;
            freeHead_ = arena_[idx].child[0];
        } else {
            idx = uint32_t(arena_.size());
            arena_.emplace_back();
        }
        Node &node = arena_[idx];
        node.bits = bits;
        node.child[0] = npos;
        node.child[1] = npos;
        node.len = len;
        node.hasValue = hasValue;
        ++liveNodes_;
        return idx;
    }

    void
    freeNode(uint32_t idx)
    {
        // Thread the free list through child[0].
        arena_[idx].child[0] = freeHead_;
        arena_[idx].child[1] = npos;
        arena_[idx].hasValue = false;
        arena_[idx].value = V{};
        freeHead_ = idx;
        --liveNodes_;
    }

    /** The node a walk towards a key of @p len bits at @p bits starts at. */
    uint32_t
    startNode(uint32_t bits, int len) const
    {
        if (len < rootBits || root_.empty())
            return 0;
        return root_[bits >> (32 - rootBits)].cover;
    }

    /** Build the root from the tree as it stands. */
    [[gnu::noinline]] void
    buildRoot()
    {
        root_.resize(size_t(1) << rootBits);
        fillRoot(0, npos);
    }

    /**
     * Write the root entries under node @p idx (length <= rootBits),
     * each once; @p best is idx's deepest valued ancestor.
     */
    void
    fillRoot(uint32_t idx, uint32_t best)
    {
        if (arena_[idx].hasValue)
            best = idx;
        const RootEntry entry{idx, best};
        forEachGap(idx, [&](size_t first, size_t last) {
            std::fill(root_.begin() + first, root_.begin() + last, entry);
        });
        for (uint32_t child : arena_[idx].child) {
            if (child != npos && arena_[child].len <= rootBits)
                fillRoot(child, best);
        }
    }

    /** First root entry under node @p idx (length <= rootBits). */
    size_t
    rootFirst(uint32_t idx) const
    {
        return arena_[idx].bits >> (32 - rootBits);
    }

    /** One past the last root entry under node @p idx. */
    size_t
    rootLast(uint32_t idx) const
    {
        return rootFirst(idx) + (size_t(1) << (rootBits - arena_[idx].len));
    }

    /**
     * Call fn(first, last) for each span of root entries under node
     * @p idx (length <= rootBits) that no child of length <= rootBits
     * covers: the entries whose deepest covering node is idx.
     */
    template <typename Fn>
    void
    forEachGap(uint32_t idx, Fn &&fn) const
    {
        size_t next = rootFirst(idx);
        for (uint32_t child : arena_[idx].child) {
            if (child == npos || arena_[child].len > rootBits)
                continue;
            fn(next, rootFirst(child));
            next = rootLast(child);
        }
        fn(next, rootLast(idx));
    }

    /** Point the entries whose deepest covering node is @p idx at @p cover. */
    void
    setCover(uint32_t idx, uint32_t cover)
    {
        forEachGap(idx, [&](size_t first, size_t last) {
            for (size_t i = first; i < last; ++i)
                root_[i].cover = cover;
        });
    }

    /**
     * findOrInsert()'s upkeep while the root exists: @p fresh gained
     * its value, and @p joint (or npos) was split in above it.
     */
    [[gnu::noinline]] void
    rootInserted(uint32_t joint, uint32_t fresh)
    {
        if (joint != npos)
            rootLinked(joint);
        rootLinked(fresh);
    }

    /**
     * erase()'s upkeep while the root exists: node @p cur just lost
     * its value, and @p stack holds its ancestors from the walk's
     * start node. Update the entries that name cur or a node the
     * prune frees, then drop the root if the tree has drained below
     * rootDropKeys.
     */
    [[gnu::noinline]] void
    rootErased(uint32_t cur, uint32_t *stack, int depth)
    {
        rootValueLost(cur);
        prune<true>(cur, stack, depth);
        if (size_ < rootDropKeys)
            root_ = std::vector<RootEntry>();
    }

    /**
     * Node @p idx was just linked in, or gained its value: the entries
     * it alone covers name it, and it is the best match of every entry
     * under it that no deeper valued node covers.
     */
    void
    rootLinked(uint32_t idx)
    {
        const int len = arena_[idx].len;
        if (len > rootBits)
            return;
        setCover(idx, idx);
        if (!arena_[idx].hasValue)
            return;
        // Valued nodes covering one entry are nested, so a shorter one
        // is an ancestor of idx.
        const size_t last = rootLast(idx);
        for (size_t i = rootFirst(idx); i < last; ++i) {
            uint32_t &best = root_[i].best;
            if (best == npos || arena_[best].len < len)
                best = idx;
        }
    }

    /**
     * Node @p idx lost its value: the entries it was the best match of
     * fall back to its deepest valued ancestor.
     */
    void
    rootValueLost(uint32_t idx)
    {
        if (arena_[idx].len > rootBits)
            return;
        uint32_t stack[33];
        int depth = pathTo(idx, stack);
        while (depth > 0 && !arena_[stack[depth - 1]].hasValue)
            --depth;
        const uint32_t above = depth > 0 ? stack[depth - 1] : npos;
        const size_t last = rootLast(idx);
        for (size_t i = rootFirst(idx); i < last; ++i) {
            if (root_[i].best == idx)
                root_[i].best = above;
        }
    }

    /**
     * Fill @p stack with node @p idx's ancestors, node 0 first.
     * @return How many there are.
     */
    int
    pathTo(uint32_t idx, uint32_t *stack) const
    {
        const uint32_t bits = arena_[idx].bits;
        int depth = 0;
        for (uint32_t cur = 0; cur != idx;
             cur = arena_[cur].child[bitAt(bits, arena_[cur].len)])
            stack[depth++] = cur;
        return depth;
    }

    /** Arena index of the node storing @p prefix, or npos. */
    uint32_t
    findNode(const Prefix &prefix) const
    {
        const uint32_t bits = prefix.address().toUint32();
        const int len = prefix.length();
        uint32_t cur = startNode(bits, len);
        while (arena_[cur].len != len) {
            const uint32_t childIdx =
                arena_[cur].child[bitAt(bits, arena_[cur].len)];
            if (childIdx == npos)
                return npos;
            const Node &child = arena_[childIdx];
            if (child.len > len ||
                ((child.bits ^ bits) & maskForLength(child.len)) != 0)
                return npos;
            cur = childIdx;
        }
        return arena_[cur].hasValue ? cur : npos;
    }

    /**
     * Restore the structural invariant upward from @p cur after its
     * value was cleared: remove childless valueless nodes (which may
     * cascade) and splice single-child valueless nodes (which cannot).
     * @p stack holds cur's ancestors from where the erase walk
     * started. Without the root (@p WithRoot false) that is node 0;
     * with it, the walk may have started below node 0, so the stack
     * is refilled from node 0 if the cascade climbs past its top, and
     * every freed node of length <= rootBits hands its entries to its
     * parent.
     */
    template <bool WithRoot>
    void
    prune(uint32_t cur, uint32_t *stack, int depth)
    {
        while (cur != 0) {
            Node &node = arena_[cur];
            if (node.hasValue)
                break;
            const int kids = int(node.child[0] != npos) +
                             int(node.child[1] != npos);
            if (kids == 2)
                break;
            if (WithRoot && depth == 0)
                depth = pathTo(cur, stack);
            const uint32_t parent = stack[--depth];
            if (WithRoot && node.len <= rootBits)
                setCover(cur, parent);
            Node &par = arena_[parent];
            const int slot = par.child[0] == cur ? 0 : 1;
            if (kids == 1) {
                par.child[slot] = node.child[0] != npos
                                      ? node.child[0]
                                      : node.child[1];
                freeNode(cur);
                break; // parent's child count is unchanged
            }
            par.child[slot] = npos;
            freeNode(cur);
            cur = parent; // parent may now be a spliceable joint
        }
    }

    template <typename Fn>
    void
    walk(uint32_t idx, Fn &fn) const
    {
        const Node &node = arena_[idx];
        if (node.hasValue)
            fn(Prefix(Ipv4Address(node.bits), node.len), node.value);
        if (node.child[0] != npos)
            walk(node.child[0], fn);
        if (node.child[1] != npos)
            walk(node.child[1], fn);
    }

    /**
     * Sum, over stored keys at or below node @p idx (at @p depth, with
     * its ancestors in @p path), of the nodes find() visits.
     */
    size_t
    descend(uint32_t idx, int depth, uint32_t *path) const
    {
        const Node &node = arena_[idx];
        path[depth] = idx;
        size_t total = 0;
        if (node.hasValue) {
            const uint32_t start = startNode(node.bits, node.len);
            int from = depth;
            while (path[from] != start)
                --from;
            total += size_t(depth - from + 1);
        }
        for (uint32_t child : node.child) {
            if (child != npos)
                total += descend(child, depth + 1, path);
        }
        return total;
    }

    std::vector<Node> arena_;
    /** The direct-indexed root: empty, or one entry per /16. */
    std::vector<RootEntry> root_;
    uint32_t freeHead_ = npos;
    size_t size_ = 0;
    size_t liveNodes_ = 0;
};

} // namespace bgpbench::net

#endif // BGPBENCH_NET_PREFIX_TREE_HH
