/**
 * @file
 * FlatIndex: a reusable open-addressing hash index for per-flush
 * bookkeeping.
 *
 * It maps a 64-bit key to a small payload, typically an index into a
 * vector the caller owns. Keys need not be unique: lookups take a
 * predicate that confirms a candidate payload, so the key can be a
 * content hash whose collisions the caller resolves against its own
 * storage. Entries are never erased one by one. reset() empties the
 * whole index in O(1) by advancing an epoch stamp and keeps the cell
 * array, so once the array has grown to the working-set size a
 * fill/reset cycle allocates nothing. std::unordered_map, by contrast,
 * allocates a node per insert and frees it again on clear().
 */

#ifndef BGPBENCH_NET_FLAT_INDEX_HH
#define BGPBENCH_NET_FLAT_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bgpbench::net
{

/**
 * Linear-probing table of (64-bit key, V) cells at load factor <= 1/2,
 * insert-or-find only, with epoch-stamped O(1) reset.
 */
template <typename V>
class FlatIndex
{
  public:
    /**
     * Find the cell whose key is @p key and whose payload satisfies
     * @p match, or claim an empty cell for @p key.
     *
     * @param inserted Set to true when a cell was claimed; its payload
     *        is then unspecified and the caller assigns it.
     * @return The cell's payload; the reference is valid until the
     *         next findOrInsert() or reset().
     */
    template <typename Match>
    V &
    findOrInsert(uint64_t key, Match &&match, bool &inserted)
    {
        if (2 * (size_ + 1) > cells_.size())
            grow();
        const size_t mask = cells_.size() - 1;
        for (size_t i = spread(key) & mask;; i = (i + 1) & mask) {
            Cell &cell = cells_[i];
            if (cell.epoch != epoch_) {
                cell.key = key;
                cell.epoch = epoch_;
                ++size_;
                inserted = true;
                return cell.value;
            }
            if (cell.key == key && match(cell.value)) {
                inserted = false;
                return cell.value;
            }
        }
    }

    /** findOrInsert() for keys that identify an entry exactly. */
    V &
    findOrInsert(uint64_t key, bool &inserted)
    {
        return findOrInsert(
            key, [](const V &) { return true; }, inserted);
    }

    /** Number of entries claimed since the last reset. */
    size_t size() const { return size_; }

    /** Forget every entry in O(1); the cell array is kept. */
    void
    reset()
    {
        size_ = 0;
        if (++epoch_ == 0) {
            // The stamp wrapped after 2^32 resets: clear every cell so
            // no stale stamp can equal the restarted epoch.
            for (Cell &cell : cells_)
                cell.epoch = 0;
            epoch_ = 1;
        }
    }

    /** Bytes held by the cell array. */
    size_t
    memoryBytes() const
    {
        return cells_.capacity() * sizeof(Cell);
    }

  private:
    struct Cell
    {
        uint64_t key = 0;
        V value{};
        /** The cell is occupied iff this equals the index's epoch. */
        uint32_t epoch = 0;
    };

    /** splitmix64 finaliser: spreads structured keys over the table. */
    static size_t
    spread(uint64_t key)
    {
        key ^= key >> 30;
        key *= 0xbf58476d1ce4e5b9ULL;
        key ^= key >> 27;
        key *= 0x94d049bb133111ebULL;
        key ^= key >> 31;
        return size_t(key);
    }

    /** Double the cell array (16 cells at first) and re-place entries. */
    void
    grow()
    {
        std::vector<Cell> old = std::exchange(cells_, {});
        cells_.resize(old.empty() ? 16 : 2 * old.size());
        const size_t mask = cells_.size() - 1;
        for (const Cell &cell : old) {
            if (cell.epoch != epoch_)
                continue;
            size_t i = spread(cell.key) & mask;
            while (cells_[i].epoch == epoch_)
                i = (i + 1) & mask;
            cells_[i] = cell;
        }
    }

    std::vector<Cell> cells_;
    uint32_t epoch_ = 1;
    size_t size_ = 0;
};

} // namespace bgpbench::net

#endif // BGPBENCH_NET_FLAT_INDEX_HH
