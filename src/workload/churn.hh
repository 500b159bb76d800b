/**
 * @file
 * Incremental-churn workload generation.
 *
 * The paper's motivation (section II): routers typically process on
 * the order of 100 BGP messages per second, with network-wide events
 * (worms, instability) pushing that 2-3 orders of magnitude higher.
 * This module generates sustained announce/withdraw churn over an
 * installed table — the steady-state workload the eight scenarios
 * bracket — for the churn benchmark and the damping experiments.
 */

#ifndef BGPBENCH_WORKLOAD_CHURN_HH
#define BGPBENCH_WORKLOAD_CHURN_HH

#include <cstdint>
#include <vector>

#include "workload/route_set.hh"
#include "workload/update_stream.hh"

namespace bgpbench::workload
{

/** Parameters of the churn generator. */
struct ChurnConfig
{
    /** Stream framing (speaker AS, next hop, packing). */
    StreamConfig stream;
    /** Total routing transactions (announce + withdraw) to emit. */
    size_t events = 10000;
    /**
     * Fraction of events that are withdrawals; each withdrawal of a
     * prefix is eventually followed by its re-announcement.
     */
    double withdrawFraction = 0.4;
    /**
     * Fraction of the route set that participates in churn ("a small
     * set of unstable prefixes causes most updates").
     */
    double flappingFraction = 0.1;
    /** Generator seed. */
    uint64_t seed = 99;
};

/**
 * Build a churn stream over @p routes: a random interleaving of
 * withdrawals and (re-)announcements of a flapping subset. A
 * flapper's AS path alternates with each down/up cycle it completes,
 * so an announcement of a flapper still announced can re-send the
 * path it already holds. Deterministic in the seed.
 *
 * The stream assumes the routes are already installed (run a Phase-1
 * injection first); every withdrawn prefix is re-announced before the
 * stream moves on, so the table converges back to full size.
 */
std::vector<StreamPacket>
buildChurnStream(const std::vector<RouteSpec> &routes,
                 const ChurnConfig &config);

} // namespace bgpbench::workload

#endif // BGPBENCH_WORKLOAD_CHURN_HH
