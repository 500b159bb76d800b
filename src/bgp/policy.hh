/**
 * @file
 * Quagga-style policy engine for import/export filtering.
 *
 * BGP route selection "is always policy-based" (paper, section III.A).
 * This module provides the policy machinery, one matcher per
 * attribute:
 *
 *  - PrefixList matches the prefix: seq-numbered entries with le/ge
 *    length bounds, compiled onto a net::PrefixTree so a lookup costs
 *    O(32) node visits instead of O(entries). "Covered by P" is the
 *    entry `P le 32`; a length range is `0.0.0.0/0 ge X le Y`.
 *    PolicyMatch's inline fields match the AS path and communities.
 *
 *  - RouteMap: an ordered list of seq-numbered entries, each with
 *    permit/deny semantics, match clauses, set-actions (local-pref,
 *    MED, as-path prepend, community add/delete/set, next-hop), and
 *    `continue`-style fallthrough to a later entry.
 *
 *  - Copy-on-write set-ops in one walk: match clauses evaluate
 *    against the *original* attributes. The bundle is copied once, at
 *    the first matched entry whose set-actions would change it (an
 *    entry matched before it changes nothing), every matched entry
 *    from there on applies to the copy, and the copy is
 *    re-canonicalised through AttributeInterner via makeAttributes().
 *    An accepted route no entry changes keeps its interned
 *    PathAttributesPtr (no allocation).
 *
 * Evaluation semantics (documented invariants, pinned by tests):
 *
 *  - Entries are evaluated in ascending seq order; the first matching
 *    entry decides. A matching deny entry rejects immediately. A
 *    matching permit entry accumulates its set-actions and terminates
 *    with accept — unless it carries a continue clause, in which case
 *    evaluation resumes at the continue target (0 = next entry) and
 *    further matching permit entries accumulate more set-actions. A
 *    deny matched while continuing still rejects. Running off the end
 *    after at least one permit matched accepts with the accumulated
 *    set-actions (the last matched disposition applies).
 *
 *  - A route matching no entry is rejected: every route-map ends in
 *    the Quagga implicit deny. A map that should pass the rest
 *    through ends with a catch-all permit entry (no match clauses,
 *    no set-actions), which accepts them unmodified.
 *
 * RouteMap is the only way to describe a policy; Policy is the
 * handle a peer holds, and the empty Policy (no map) is the paper's
 * policy-free configuration.
 */

#ifndef BGPBENCH_BGP_POLICY_HH
#define BGPBENCH_BGP_POLICY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgp/path_attributes.hh"
#include "net/ipv4_address.hh"
#include "net/prefix.hh"
#include "net/prefix_tree.hh"

namespace bgpbench::bgp
{

/** Tri-state result of evaluating a prefix-list. */
enum class ListMatch
{
    NoMatch,
    Permit,
    Deny,
};

/**
 * A named ip prefix-list: seq-numbered entries with ge/le prefix-
 * length bounds, first (lowest-seq) matching entry decides, implicit
 * no-match when nothing matches.
 *
 * Entries are compiled onto a net::PrefixTree keyed by entry prefix,
 * so evaluating a route walks at most 33 tree nodes and inspects only
 * the entries whose prefix actually covers the route — the classic
 * Quagga trick that makes 1000-entry filters affordable on full-table
 * churn.
 */
class PrefixList
{
  public:
    struct Entry
    {
        uint32_t seq = 0;
        bool permit = true;
        net::Prefix prefix;
        /** Resolved length bounds (see add()). */
        int minLength = 0;
        int maxLength = 32;
    };

    PrefixList() = default;
    explicit PrefixList(std::string name) : name_(std::move(name)) {}

    /**
     * Add an entry; an entry already holding @p seq is replaced.
     *
     * Bounds follow the familiar ge/le rules: neither given matches
     * the exact prefix length only; `ge` alone matches lengths in
     * [ge, 32]; `le` alone matches [prefix.length(), le]; both match
     * [ge, le]. A route matches an entry when the entry's prefix
     * covers it and its length is within the bounds.
     */
    PrefixList &add(uint32_t seq, bool permit,
                    const net::Prefix &prefix,
                    std::optional<int> ge = std::nullopt,
                    std::optional<int> le = std::nullopt);

    const std::string &name() const { return name_; }
    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    const std::vector<Entry> &entries() const { return entries_; }

    /** First (lowest-seq) matching entry decides; compiled lookup. */
    ListMatch evaluate(const net::Prefix &prefix) const;

    /**
     * Reference linear-scan evaluation (the oracle the compiled path
     * is property-tested against, and the micro-bench baseline).
     */
    ListMatch evaluateLinear(const net::Prefix &prefix) const;

  private:
    std::string name_;
    /** Sorted by seq, one entry per seq. */
    std::vector<Entry> entries_;
    /** entry prefix -> indexes into entries_ with that prefix. */
    net::PrefixTree<std::vector<uint32_t>> trie_;
};

/**
 * Inline AS-path and community conditions; unset fields match
 * anything. Prefixes match through RouteMapEntry::prefixList.
 */
struct PolicyMatch
{
    /** Matches routes whose AS_PATH contains this AS. */
    std::optional<AsNumber> asPathContains;
    /** Matches routes originated by this AS. */
    std::optional<AsNumber> originAs;
    /** Matches routes carrying this community. */
    std::optional<uint32_t> hasCommunity;
    /** Matches routes whose AS_PATH length is at least this. */
    std::optional<int> minAsPathLength;

    /** True if @p attrs satisfy every set condition. */
    bool matches(const PathAttributes &attrs) const;
};

/**
 * The set-clauses of one route-map entry. Applied copy-on-write:
 * wouldChange() decides whether an attribute copy is needed at all.
 */
struct SetActions
{
    std::optional<uint32_t> localPref;
    std::optional<uint32_t> med;
    /** Prepend the local AS this many extra times (export side). */
    int prependCount = 0;
    /** Rewrite NEXT_HOP. */
    std::optional<net::Ipv4Address> nextHop;
    /**
     * Communities to add / strip. RouteMap::add() sorts and dedupes
     * all three community vectors, so entries may be written in any
     * order; free-standing SetActions users must keep them sorted.
     */
    std::vector<uint32_t> addCommunities;
    std::vector<uint32_t> deleteCommunities;
    /**
     * Replace the community set wholesale with `communities` ("set
     * community ..."; empty replacement = "set community none").
     * Replacement runs before add/delete.
     */
    bool replaceCommunities = false;
    std::vector<uint32_t> communities;

    bool empty() const;

    /**
     * Would applying these actions to @p attrs produce a different
     * attribute bundle? @p prepend_as is the AS used for prepends
     * (0 on import, where prepending is a no-op).
     */
    bool wouldChange(const PathAttributes &attrs,
                     AsNumber prepend_as) const;

    /** Apply in place (replace, add, delete, scalars, prepend). */
    void applyTo(PathAttributes &attrs, AsNumber prepend_as) const;
};

/** Copy-on-write / disposition tallies of route-map evaluation. */
struct PolicyEvalStats
{
    /** apply() evaluations against a non-trivial map. */
    uint64_t evals = 0;
    uint64_t rejects = 0;
    /** Accepted routes returned with their original pointer. */
    uint64_t cowHits = 0;
    /** Accepted routes that needed a copy + re-intern. */
    uint64_t cowCopies = 0;

    double
    cowHitRatio() const
    {
        uint64_t accepted = cowHits + cowCopies;
        return accepted ? double(cowHits) / double(accepted) : 1.0;
    }
};

/**
 * One route-map entry: match clauses (all present clauses must pass;
 * the prefix-list passes only when it evaluates to Permit), a
 * disposition, set-actions, and an optional continue clause.
 */
struct RouteMapEntry
{
    uint32_t seq = 10;
    bool permit = true;
    std::shared_ptr<const PrefixList> prefixList;
    /** Inline conditions; all unset matches anything. */
    PolicyMatch match;
    SetActions set;
    /**
     * Continue evaluating after this permit entry matches: resume at
     * the first entry with seq >= *continueTo (0 = the next entry).
     * Targets at or before this entry's seq are clamped forward, so
     * evaluation always terminates.
     */
    std::optional<uint32_t> continueTo;

    bool matches(const net::Prefix &prefix,
                 const PathAttributes &attrs) const;
};

/**
 * A named, ordered route-map. Immutable once wrapped into a Policy
 * (share via shared_ptr<const RouteMap>); building is config-time.
 */
class RouteMap
{
  public:
    explicit RouteMap(std::string name = "") : name_(std::move(name)) {}

    /** Insert an entry, kept sorted by seq (stable for equal seq). */
    RouteMap &add(RouteMapEntry entry);

    const std::string &name() const { return name_; }
    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    const std::vector<RouteMapEntry> &entries() const
    {
        return entries_;
    }

    /**
     * Evaluate the map against a route (see file comment for the
     * exact semantics).
     *
     * @param prefix The route's destination.
     * @param attrs The route's attributes (shared, never modified).
     * @param prepend_as AS used for prepend set-actions (0 on
     *        import).
     * @param stats Optional evaluation tallies.
     * @return The (possibly modified, possibly same) attributes, or
     *         null if the route is rejected.
     */
    PathAttributesPtr apply(const net::Prefix &prefix,
                            const PathAttributesPtr &attrs,
                            AsNumber prepend_as = 0,
                            PolicyEvalStats *stats = nullptr) const;

  private:
    std::string name_;
    /** Sorted by seq. */
    std::vector<RouteMapEntry> entries_;
};

/**
 * The policy attachment point: a cheap copyable handle over an
 * immutable RouteMap. The empty policy accepts everything unmodified.
 */
class Policy
{
  public:
    /** The empty policy accepts everything unmodified. */
    Policy() = default;

    /** Attach a route-map (shared, immutable). */
    explicit Policy(std::shared_ptr<const RouteMap> map)
        : map_(std::move(map))
    {}

    /**
     * True when the policy cannot affect any route: no map attached.
     * The speaker skips an empty export policy and counts only
     * non-empty policies in bgp.policy_evals.
     */
    bool empty() const { return !map_; }

    /** Number of route-map entries. */
    size_t size() const { return map_ ? map_->size() : 0; }

    const std::shared_ptr<const RouteMap> &routeMap() const
    {
        return map_;
    }

    /**
     * Apply the policy to a route.
     *
     * @param prefix The route's destination.
     * @param attrs The route's attributes (shared, not modified).
     * @param prepend_as AS used for prepend actions (the local AS);
     *        pass 0 on import where prepending is meaningless.
     * @param stats Optional evaluation tallies.
     * @return The (possibly modified, possibly same) attributes, or
     *         null if the route is rejected.
     */
    PathAttributesPtr
    apply(const net::Prefix &prefix, const PathAttributesPtr &attrs,
          AsNumber prepend_as = 0,
          PolicyEvalStats *stats = nullptr) const
    {
        if (!attrs)
            return nullptr;
        if (!map_)
            return attrs;
        return map_->apply(prefix, attrs, prepend_as, stats);
    }

  private:
    std::shared_ptr<const RouteMap> map_;
};

/**
 * Convenience: a policy that rejects routes covered by @p prefix and
 * passes every other route through unmodified.
 */
Policy makeRejectPrefixPolicy(const net::Prefix &prefix);

/**
 * Convenience: a policy setting LOCAL_PREF for routes whose AS_PATH
 * contains @p asn, passing every other route through unmodified.
 */
Policy makeLocalPrefForAsPolicy(AsNumber asn, uint32_t local_pref);

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_POLICY_HH
