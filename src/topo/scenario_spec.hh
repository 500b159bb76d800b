/**
 * @file
 * Declarative topology scenarios: one spec, one runner.
 *
 * A ScenarioSpec names a topology, a route-origination workload, and
 * a timed FaultSchedule of typed events (beacon prefix up/down
 * trains, link-flap trains with period/duty/jitter, correlated
 * session resets across a shard cut, router restarts). ScenarioRunner
 * is the only code that runs the three phases — establish, announce,
 * reconverge — for every caller: the `topo` and `serve` commands, the
 * benches, the read-side serve runner and the tests. A new scenario
 * family (the churn and stability axis in particular) is a schedule,
 * not a new runner.
 *
 * Fault times are offsets from the start of the measured phase: 0 is
 * the instant the pre-fault network went quiet. All schedule
 * expansion (trains, jitter) is a pure function of the spec, so a
 * spec replayed at any jobs count yields byte-identical reports.
 */

#ifndef BGPBENCH_TOPO_SCENARIO_SPEC_HH
#define BGPBENCH_TOPO_SCENARIO_SPEC_HH

#include <string>
#include <utility>
#include <vector>

#include "topo/stability.hh"
#include "topo/topology_sim.hh"

namespace bgpbench::topo
{

/** One typed, timed fault. Times are measured-phase offsets. */
struct FaultEvent
{
    enum class Kind {
        /** Withdraw scenarioPrefix(node, index) at the origin. */
        PrefixDown,
        /** (Re-)originate scenarioPrefix(node, index). */
        PrefixUp,
        LinkDown,
        LinkUp,
        /** Drop and (after the reconnect delay) re-establish. */
        SessionReset,
        /** Down all sessions of a node for @ref downtime. */
        RouterRestart,
    };

    Kind kind = Kind::LinkDown;
    /** Offset from the measured-phase start (ns of virtual time). */
    sim::SimTime at = 0;
    /** Target node (PrefixDown/PrefixUp/RouterRestart). */
    size_t node = 0;
    /** Prefix index at the node (PrefixDown/PrefixUp). */
    size_t index = 0;
    /** Target link (LinkDown/LinkUp/SessionReset). */
    size_t link = 0;
    /** Outage duration (RouterRestart). */
    sim::SimTime downtime = 0;
};

/**
 * An ordered collection of FaultEvents with builder-style helpers.
 * Composite builders (trains) expand into primitive events
 * immediately, so the schedule is always a flat, inspectable list.
 */
class FaultSchedule
{
  public:
    FaultSchedule &prefixDown(size_t node, size_t index,
                              sim::SimTime at);
    FaultSchedule &prefixUp(size_t node, size_t index,
                            sim::SimTime at);
    FaultSchedule &linkDown(size_t link, sim::SimTime at);
    FaultSchedule &linkUp(size_t link, sim::SimTime at);
    FaultSchedule &sessionReset(size_t link, sim::SimTime at);
    FaultSchedule &routerRestart(size_t node, sim::SimTime at,
                                 sim::SimTime downtime);

    /**
     * Beacon train (RIPE-style): @p cycles down/up pairs of
     * scenarioPrefix(node, index), the withdrawal at
     * start + c * period and the re-announcement half a period
     * later. The train ends announced.
     */
    FaultSchedule &beaconTrain(size_t node, size_t index,
                               sim::SimTime start, sim::SimTime period,
                               size_t cycles);

    /**
     * Link-flap train: @p cycles down/up pairs of @p link. Cycle c
     * goes down at start + c * period (+ jitter) and comes back up
     * after period * dutyDownPercent / 100. @p jitterNs adds a
     * deterministic per-cycle offset in [0, jitterNs] derived by
     * hashing (seed, link, cycle) — no wall clock, no global RNG, so
     * the expansion is reproducible by construction. Keep
     * jitterNs + the down time below the period or cycles overlap.
     * The train ends with the link up.
     */
    FaultSchedule &linkFlapTrain(size_t link, sim::SimTime start,
                                 sim::SimTime period,
                                 unsigned dutyDownPercent,
                                 size_t cycles, sim::SimTime jitterNs = 0,
                                 uint64_t seed = 0);

    /** Session resets of every listed link at the same instant. */
    FaultSchedule &correlatedReset(const std::vector<size_t> &links,
                                   sim::SimTime at);

    const std::vector<FaultEvent> &events() const { return events_; }
    size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    /** Events carrying a routing transaction (prefix up/down). */
    size_t prefixEvents() const;
    /** Events sorted by offset (stable: ties keep builder order). */
    std::vector<FaultEvent> sorted() const;

  private:
    std::vector<FaultEvent> events_;
};

/**
 * Links whose endpoints live in different shards of @p partition —
 * the natural target set for a correlated session-reset schedule
 * that stresses the cross-shard cut.
 */
std::vector<size_t> crossShardLinks(const Topology &topology,
                                    const Partition &partition);

/**
 * RFC 2439 damping parameters with the timers rescaled to the
 * ms-scale virtual scenarios: the penalty values and thresholds are
 * the RFC defaults, but the half-life shrinks from 15 minutes to
 * 2 seconds so a suppressed route's reuse horizon fits inside a
 * scenario's virtual-time budget instead of dwarfing it. Used by the
 * CLI's --damping and the stability bench; enabled is already set.
 */
bgp::DampingConfig churnDampingConfig();

/** A complete declarative scenario. */
struct ScenarioSpec
{
    /** Report label ("announce", "link-failure", "flap-train", ...). */
    std::string name = "announce";
    /** Topology-shape label for the report. */
    std::string shape;
    Topology topology;
    /**
     * Workload: every node that is the only one of its AS
     * (Topology::soleNodeOfAs) originates this many scenarioPrefix()
     * routes once sessions are up — unless @ref originations names
     * an explicit route set, which then replaces the grid. In the
     * clos fabric that is the ToRs; every other shape gives each
     * node its own AS.
     */
    size_t prefixesPerNode = 1;
    /** Explicit (node, prefix) originations (demo topologies). */
    std::vector<std::pair<size_t, net::Prefix>> originations;
    /** Virtual-time budget; exceeding it reports non-convergence. */
    sim::SimTime limitNs = sim::nsFromSec(600.0);
    TopologySimConfig simConfig;
    FaultSchedule faults;
};

/** Everything one scenario run produces. */
struct ScenarioResult
{
    ConvergenceReport convergence;
    StabilityReport stability;
};

/**
 * Executes one ScenarioSpec:
 *
 *   1. establish — sessions come up, OPEN exchanges settle;
 *   2. announce — the workload is originated and propagates;
 *   3. reconverge — the fault schedule plays (offsets relative to
 *      the announce-quiet instant) and the network re-settles.
 *
 * The measured phase (the convergence stopwatch and the stability
 * counters) starts after establish for fault-free specs and after
 * announce otherwise.
 *
 * The simulation is built at construction and reachable through
 * sim() before and after run(): a caller binds listeners to a
 * speaker first (the serve runner's snapshot publisher) or reads the
 * engine's shard layout afterwards, without a second set-up.
 */
class ScenarioRunner
{
  public:
    explicit ScenarioRunner(ScenarioSpec spec)
        : spec_(std::move(spec)),
          sim_(std::move(spec_.topology), spec_.simConfig)
    {}

    /** Run the scenario. Single-shot: call it once per runner. */
    ScenarioResult run();

    /** The simulation the spec runs on. */
    TopologySim &sim() { return sim_; }
    const TopologySim &sim() const { return sim_; }

  private:
    /** The spec; its topology has moved into sim_. */
    ScenarioSpec spec_;
    TopologySim sim_;
};

namespace demo
{
/**
 * The four-AS policy demonstration (see scenarios.hh) as a
 * ScenarioSpec: the demo's topology, its explicit originations as the
 * workload, no faults.
 */
ScenarioSpec fourAsScenario();
} // namespace demo

} // namespace bgpbench::topo

#endif // BGPBENCH_TOPO_SCENARIO_SPEC_HH
