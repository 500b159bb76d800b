/**
 * @file
 * The set of path attributes attached to a BGP route, with wire
 * encoding and decoding of the UPDATE attribute block.
 */

#ifndef BGPBENCH_BGP_PATH_ATTRIBUTES_HH
#define BGPBENCH_BGP_PATH_ATTRIBUTES_HH

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgp/as_path.hh"
#include "bgp/types.hh"
#include "net/byte_io.hh"
#include "net/ipv4_address.hh"

namespace bgpbench::bgp
{

/**
 * Decode failure description, mapping onto the NOTIFICATION that a
 * conforming speaker would send (RFC 4271 section 6).
 */
struct DecodeError
{
    ErrorCode code = ErrorCode::None;
    uint8_t subcode = 0;
    std::string detail;

    /** True when an error is present. */
    explicit operator bool() const { return code != ErrorCode::None; }
};

/** AGGREGATOR attribute value (RFC 4271 section 5.1.7). */
struct Aggregator
{
    AsNumber asn = 0;
    net::Ipv4Address address;

    auto operator<=>(const Aggregator &) const = default;
};

/**
 * Decoded path attributes of one route.
 *
 * The well-known mandatory attributes (ORIGIN, AS_PATH, NEXT_HOP) are
 * plain members; the optional ones are std::optional. Attribute sets
 * are shared between all prefixes announced in one UPDATE via
 * PathAttributesPtr, which is what makes large packed UPDATEs cheap to
 * store — mirroring how real BGP implementations share attribute
 * blocks.
 */
struct PathAttributes
{
    Origin origin = Origin::Igp;
    AsPath asPath;
    net::Ipv4Address nextHop;
    std::optional<uint32_t> med;
    std::optional<uint32_t> localPref;
    bool atomicAggregate = false;
    std::optional<Aggregator> aggregator;
    /** RFC 1997 communities, kept sorted for canonical comparison. */
    std::vector<uint32_t> communities;
    /** RFC 4456: router id of the route's original iBGP injector. */
    std::optional<RouterId> originatorId;
    /** RFC 4456: cluster ids the route was reflected through. */
    std::vector<uint32_t> clusterList;

    /**
     * Deep structural equality over the attribute fields only (the
     * hash cache and interning mark are excluded). Cached hashes are
     * used as a cheap reject before the field-by-field compare.
     */
    bool operator==(const PathAttributes &other) const;

    /**
     * Content hash over every attribute field, computed once and
     * cached (the struct is immutable once shared). Never zero.
     */
    uint64_t hash() const;

    /**
     * True if this instance is the canonical copy held by an
     * AttributeInterner: two distinct interned instances *of the same
     * interner* are guaranteed to differ in value.
     */
    bool interned() const { return intern_.owner != 0; }

    /**
     * Id of the AttributeInterner whose canonical instance this is,
     * or 0 when not interned. Distinct canonicals are only guaranteed
     * value-unequal when their owners match: separate interner
     * instances (tests) can each canonicalise the same value.
     */
    uint64_t internOwner() const { return intern_.owner; }

    /**
     * Encode the complete "Path Attributes" block of an UPDATE
     * (RFC 4271 section 4.3), excluding the leading two-byte total
     * length which the message encoder owns.
     */
    void encode(net::ByteWriter &writer) const;

    /** Size in bytes of the encoded attribute block. */
    size_t encodedSize() const;

    /**
     * Decode an attribute block of exactly @p reader's contents.
     *
     * Performs the RFC 4271 section 6.3 checks: flag validity, length
     * validity, mandatory attribute presence, ORIGIN range, NEXT_HOP
     * syntax, duplicate attribute rejection.
     *
     * @param reader Reader spanning the attribute block.
     * @param error Filled in on failure.
     * @return The attributes, or std::nullopt with @p error set.
     */
    static std::optional<PathAttributes>
    decode(net::ByteReader &reader, DecodeError &error);

    /** Short human-readable rendering for traces. */
    std::string toString() const;

  private:
    friend class AttributeInterner;

    /**
     * Interner bookkeeping carried by each instance: the lazily
     * computed content hash (0 = not yet computed) and the id of the
     * AttributeInterner whose canonical instance this is (0 = not
     * interned). Deliberately does NOT propagate on copy or move:
     * callers copy an attribute set precisely in order to mutate the
     * copy, so the destination must start cold — a stale hash or
     * canonical mark on a mutated copy would file it under the wrong
     * interner bucket and make every pointer-identity and cached-hash
     * fast path downstream report equal values as unequal.
     */
    struct InternState
    {
        uint64_t hash = 0;
        uint64_t owner = 0;

        InternState() = default;
        InternState(const InternState &) noexcept {}
        InternState(InternState &&other) noexcept { other.reset(); }
        InternState &
        operator=(const InternState &) noexcept
        {
            reset();
            return *this;
        }
        InternState &
        operator=(InternState &&other) noexcept
        {
            reset();
            other.reset();
            return *this;
        }
        void
        reset() noexcept
        {
            hash = 0;
            owner = 0;
        }
    };

    mutable InternState intern_;
};

/** Routes share immutable attribute blocks. */
using PathAttributesPtr = std::shared_ptr<const PathAttributes>;

/**
 * Build a shared attribute block. Routed through the calling thread's
 * AttributeInterner (AttributeInterner::global()) so equal-valued
 * sets share one canonical instance.
 */
PathAttributesPtr makeAttributes(PathAttributes attrs);

/**
 * Null-safe attribute equality through shared pointers — the hot
 * comparison of the whole update pipeline (RIB change detection,
 * outbound grouping). Pointer identity decides in O(1) for interned
 * sets in both directions: equal pointers are equal values, and two
 * *distinct* canonicals of the *same* interner are guaranteed
 * unequal. Canonicals of different interner instances (tests spin up
 * their own) carry no such guarantee, so they fall through to the
 * cached-hash reject and deep compare like non-canonical instances.
 */
inline bool
sameAttributeValue(const PathAttributesPtr &a,
                   const PathAttributesPtr &b)
{
    if (a == b)
        return true;
    if (!a || !b)
        return false;
    if (a->interned() && a->internOwner() == b->internOwner())
        return false;
    if (a->hash() != b->hash())
        return false;
    return *a == *b;
}

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_PATH_ATTRIBUTES_HH
