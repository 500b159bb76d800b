/**
 * @file
 * Network-wide convergence detection and reporting.
 *
 * Convergence of the simulated network is detected operationally:
 * the speakers are driven purely by message deliveries, so once the
 * event queue is quiescent no further routing state can change — the
 * network has converged. The tracker additionally records the
 * convergence *instant*: the last UPDATE delivery or session state
 * change of the phase. An UPDATE that changes no route counts too, so
 * this is when the network fell silent, not when a Loc-RIB last
 * changed. Whether the routes are right is
 * TopologySim::locRibsConsistent's check, a link-local fixpoint: each
 * up link's Adj-RIB-In at one end equals the other end's Adj-RIB-Out
 * after the receiving end's import policy.
 *
 * Metrics follow the path-vector stability literature (Papadimitriou
 * & Cabellos, arXiv:1204.5642): convergence time, total UPDATE
 * messages and routing transactions exchanged, per-router
 * transactions/sec (the paper's single-router metric, now measured
 * per node of a network), and path exploration — how many distinct
 * AS paths a router was offered per prefix before the network
 * settled.
 */

#ifndef BGPBENCH_TOPO_CONVERGENCE_HH
#define BGPBENCH_TOPO_CONVERGENCE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/message.hh"
#include "bgp/speaker.hh"
#include "net/prefix.hh"
#include "sim/time.hh"

namespace bgpbench::stats
{
class JsonWriter;
}

namespace bgpbench::topo
{

/**
 * Observes message deliveries and speaker events across all routers
 * of a TopologySim run and accumulates convergence metrics.
 *
 * The phase clock supports multi-stage scenarios: markPhaseStart()
 * before injecting a fault restarts the convergence stopwatch, so the
 * reported time covers only re-convergence after the fault.
 */
class ConvergenceTracker
{
  public:
    /** Restart the convergence stopwatch (e.g. at fault injection). */
    void markPhaseStart(sim::SimTime now);

    /**
     * An UPDATE finished its simulated delivery to @p node. Records
     * its AS path's hash for every (node, prefix) it announces.
     */
    void onUpdateDelivered(size_t node, const bgp::UpdateMessage &msg,
                           sim::SimTime now);

    /** A session FSM changed state on @p node. */
    void onSessionChange(size_t node, sim::SimTime now);

    /** A segment was lost to a down link or a stale link epoch. */
    void onSegmentDropped() { ++droppedSegments_; }

    /**
     * Fold @p shard's accumulated metrics into this tracker and
     * reset @p shard to empty. Every merged quantity is
     * order-independent (sums, maxima, unions of distinct paths), so
     * absorbing the per-shard trackers of a parallel run in any shard
     * order yields the same totals as sequential accumulation — the
     * property the byte-identical-reports guarantee rests on. A
     * (node, prefix) new here is moved over, not copied.
     */
    void absorb(ConvergenceTracker &shard);

    /** @name Accumulated metrics
     *  @{
     */
    /**
     * Time from the phase start to the phase's last UPDATE delivery
     * or session state change, in seconds (0 if neither happened).
     */
    double convergenceTimeSec() const;
    uint64_t updatesDelivered() const { return updatesDelivered_; }
    uint64_t transactionsDelivered() const
    {
        return transactionsDelivered_;
    }
    uint64_t droppedSegments() const { return droppedSegments_; }
    /**
     * Distinct AS paths announced to @p node for @p prefix. Two paths
     * are one when their 64-bit hashes over the tokens
     * AsPath::toString() renders are equal, whatever the rest of
     * their attribute sets holds: a split AS_SEQUENCE counts as the
     * unsplit one, and two paths whose hashes collide count once.
     */
    size_t distinctPathsExplored(size_t node,
                                 const net::Prefix &prefix) const;
    /** Largest exploration count over all (node, prefix) pairs. */
    size_t maxPathsExplored() const;
    /** Mean exploration count over all (node, prefix) pairs. */
    double meanPathsExplored() const;
    /**
     * Updates/transactions delivered since the last markPhaseStart()
     * — the measured phase's share of the lifetime totals. The
     * baselines are snapshotted on the main tracker (after the shard
     * trackers have been absorbed), so they are layout-independent.
     */
    uint64_t phaseUpdatesDelivered() const
    {
        return updatesDelivered_ - phaseUpdatesBase_;
    }
    uint64_t phaseTransactionsDelivered() const
    {
        return transactionsDelivered_ - phaseTransactionsBase_;
    }
    /**
     * Visit every (node, prefix, distinct-paths-offered) triple, in
     * no particular order.
     */
    template <typename Fn>
    void
    forEachExplored(Fn &&fn) const
    {
        for (const auto &[key, offers] : explored_)
            fn(keyNode(key), keyPrefix(key), offers.size());
    }
    /** @} */

  private:
    /**
     * (node, prefix) as one integer: the node above bit 40, then the
     * 32-bit address and the 8-bit length. Panics if @p node does not
     * fit in the 24 bits left.
     */
    static uint64_t exploredKey(size_t node, const net::Prefix &prefix);
    static size_t keyNode(uint64_t key) { return size_t(key >> 40); }
    static net::Prefix
    keyPrefix(uint64_t key)
    {
        return net::Prefix(net::Ipv4Address(uint32_t(key >> 8)),
                           int(key & 0xff));
    }

    /** Append @p hash to @p offers unless it is already there. */
    static void addOffer(std::vector<uint64_t> &offers, uint64_t hash);

    sim::SimTime phaseStart_ = 0;
    sim::SimTime lastActivity_ = 0;
    uint64_t updatesDelivered_ = 0;
    uint64_t transactionsDelivered_ = 0;
    uint64_t droppedSegments_ = 0;
    /** Lifetime totals at the last markPhaseStart(). */
    uint64_t phaseUpdatesBase_ = 0;
    uint64_t phaseTransactionsBase_ = 0;
    /** exploredKey(node, prefix) -> the distinct path hashes offered. */
    std::unordered_map<uint64_t, std::vector<uint64_t>> explored_;
};

/** Per-router slice of a convergence report. */
struct RouterReport
{
    std::string name;
    uint64_t updatesReceived = 0;
    uint64_t updatesSent = 0;
    /** Inbound routing transactions processed (paper's metric unit). */
    uint64_t transactions = 0;
    /** transactions / convergence time of the measured phase. */
    double tps = 0.0;
};

/**
 * The result of running one topology scenario to convergence — the
 * network-scale analogue of the paper's per-scenario TPS number.
 */
struct ConvergenceReport
{
    std::string scenario;
    std::string shape;
    size_t nodes = 0;
    size_t links = 0;
    bool converged = false;
    double convergenceTimeSec = 0.0;
    uint64_t totalUpdates = 0;
    uint64_t totalTransactions = 0;
    uint64_t droppedSegments = 0;
    size_t pathExplorationMax = 0;
    double pathExplorationMean = 0.0;
    std::vector<RouterReport> routers;

    /**
     * Deterministic JSON rendering (same report => byte-identical
     * text) in the BENCH_*.json format of the benchmark trajectory.
     */
    std::string toJson() const;

    /** Emit the report as one object into an ongoing JSON document. */
    void writeJson(stats::JsonWriter &json) const;

    /** Human-readable summary table. */
    void printText(std::ostream &os) const;

    /** One CSV row per router, with a header when @p header is set. */
    void printCsv(std::ostream &os, bool header) const;
};

/** Print a speaker's Loc-RIB as an aligned table (for examples). */
void printLocRib(std::ostream &os, const bgp::BgpSpeaker &speaker,
                 const std::string &label);

} // namespace bgpbench::topo

#endif // BGPBENCH_TOPO_CONVERGENCE_HH
