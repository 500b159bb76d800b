/**
 * @file
 * The BGP decision process (RFC 4271 section 9.1).
 */

#ifndef BGPBENCH_BGP_DECISION_HH
#define BGPBENCH_BGP_DECISION_HH

#include <optional>
#include <vector>

#include "bgp/route.hh"

namespace bgpbench::bgp
{

/** LOCAL_PREF assumed when the attribute is absent (eBGP). */
constexpr uint32_t defaultLocalPref = 100;

/**
 * Three-way comparison of two candidate routes for the same prefix.
 *
 * Implements the de-facto standard selection order the paper relies
 * on ("most vendors implement the best path selection based on the
 * length of AS path"):
 *
 *   0. locally originated routes first (vendor "weight")
 *   1. higher LOCAL_PREF (degree of preference)
 *   2. shorter AS_PATH
 *   3. lower ORIGIN (IGP < EGP < INCOMPLETE)
 *   4. lower MED, only between routes whose AS_PATH starts with the
 *      same AS (RFC 4271 9.1.2.2 c)
 *   5. eBGP-learned over iBGP-learned
 *   5b. shorter CLUSTER_LIST (RFC 4456 section 9)
 *   6. lower peer BGP identifier (ORIGINATOR_ID when reflected)
 *
 * Candidates that tie through step 5b are multipath-equivalent:
 * equally good by policy and path quality, differing only in the
 * deterministic last-resort tiebreak.
 *
 * @return Negative if @p a is preferred, positive if @p b is
 *         preferred, zero only for indistinguishable candidates.
 */
int compareCandidates(const Candidate &a, const Candidate &b);

/**
 * Select the best candidate for a prefix.
 *
 * @param candidates All import-accepted routes for the prefix.
 * @return Index of the best candidate, or std::nullopt if the list is
 *         empty.
 */
std::optional<size_t>
selectBest(const std::vector<Candidate> &candidates);

/**
 * Select the route group for a prefix into @p group: the best
 * candidate plus every candidate multipath-equivalent to it (tied
 * through step 5b of compareCandidates), ordered by the full
 * tie-break ladder (best first, then ascending router-id — a
 * deterministic order depending only on the candidate set, never on
 * arrival or thread interleaving), truncated to @p maxPaths.
 *
 * @p maxPaths is vendor "maximum-paths", the ECMP group depth: up to
 * that many candidates that tie the best through the whole ladder
 * short of the final router-id step share the forwarding load
 * (RFC 7938 section 6.1 datacenter ECMP). With 1 the group is
 * {selectBest(...)}, the classic single-path decision. @p group is
 * replaced (empty if @p candidates is) and keeps its capacity, so a
 * caller that reuses one vector allocates nothing once it has grown.
 */
void selectMultipath(const std::vector<Candidate> &candidates,
                     size_t maxPaths, std::vector<size_t> &group);

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_DECISION_HH
