#include "topo/scenario_spec.hh"

#include <algorithm>

#include "net/logging.hh"
#include "obs/views.hh"
#include "topo/scenarios.hh"

namespace bgpbench::topo
{

namespace
{

/**
 * Deterministic per-cycle jitter: a splitmix64-style finalizer over
 * (seed, link, cycle). Pure arithmetic on the schedule inputs — the
 * expansion never consults a clock or global RNG.
 */
uint64_t
jitterHash(uint64_t seed, size_t link, size_t cycle)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (uint64_t(link) + 1) +
                 0xbf58476d1ce4e5b9ULL * (uint64_t(cycle) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Records the scenario's phase intervals into the run trace. Phase
 * boundaries are virtual times the simulation reached anyway, so
 * recording cannot perturb it; a detached recorder does nothing.
 */
class PhaseRecorder
{
  public:
    explicit PhaseRecorder(const TopologySimConfig &config)
    {
        if (config.obs)
            tracer_.attach(&config.obs->trace);
    }

    void
    phase(const char *name, sim::SimTime begin, sim::SimTime end)
    {
        tracer_.complete(name, "phase", obs::kTrackPhases, 0, begin,
                         end);
    }

  private:
    obs::Tracer tracer_;
};

/** Apply one fault event at absolute time @p at. */
void
applyFault(TopologySim &sim, const FaultEvent &event, sim::SimTime at)
{
    switch (event.kind) {
    case FaultEvent::Kind::PrefixDown:
        sim.withdrawLocal(event.node,
                          scenarioPrefix(event.node, event.index), at);
        break;
    case FaultEvent::Kind::PrefixUp:
        sim.originate(event.node,
                      scenarioPrefix(event.node, event.index), at);
        break;
    case FaultEvent::Kind::LinkDown:
        sim.scheduleLinkDown(event.link, at);
        break;
    case FaultEvent::Kind::LinkUp:
        sim.scheduleLinkUp(event.link, at);
        break;
    case FaultEvent::Kind::SessionReset:
        sim.scheduleSessionReset(event.link, at);
        break;
    case FaultEvent::Kind::RouterRestart:
        sim.scheduleRouterRestart(event.node, at, event.downtime);
        break;
    }
}

} // namespace

FaultSchedule &
FaultSchedule::prefixDown(size_t node, size_t index, sim::SimTime at)
{
    FaultEvent event;
    event.kind = FaultEvent::Kind::PrefixDown;
    event.at = at;
    event.node = node;
    event.index = index;
    events_.push_back(event);
    return *this;
}

FaultSchedule &
FaultSchedule::prefixUp(size_t node, size_t index, sim::SimTime at)
{
    FaultEvent event;
    event.kind = FaultEvent::Kind::PrefixUp;
    event.at = at;
    event.node = node;
    event.index = index;
    events_.push_back(event);
    return *this;
}

FaultSchedule &
FaultSchedule::linkDown(size_t link, sim::SimTime at)
{
    FaultEvent event;
    event.kind = FaultEvent::Kind::LinkDown;
    event.at = at;
    event.link = link;
    events_.push_back(event);
    return *this;
}

FaultSchedule &
FaultSchedule::linkUp(size_t link, sim::SimTime at)
{
    FaultEvent event;
    event.kind = FaultEvent::Kind::LinkUp;
    event.at = at;
    event.link = link;
    events_.push_back(event);
    return *this;
}

FaultSchedule &
FaultSchedule::sessionReset(size_t link, sim::SimTime at)
{
    FaultEvent event;
    event.kind = FaultEvent::Kind::SessionReset;
    event.at = at;
    event.link = link;
    events_.push_back(event);
    return *this;
}

FaultSchedule &
FaultSchedule::routerRestart(size_t node, sim::SimTime at,
                             sim::SimTime downtime)
{
    FaultEvent event;
    event.kind = FaultEvent::Kind::RouterRestart;
    event.at = at;
    event.node = node;
    event.downtime = downtime;
    events_.push_back(event);
    return *this;
}

FaultSchedule &
FaultSchedule::beaconTrain(size_t node, size_t index,
                           sim::SimTime start, sim::SimTime period,
                           size_t cycles)
{
    if (period == 0)
        fatal("beacon train needs a non-zero period");
    for (size_t c = 0; c < cycles; ++c) {
        sim::SimTime down_at = start + sim::SimTime(c) * period;
        prefixDown(node, index, down_at);
        prefixUp(node, index, down_at + period / 2);
    }
    return *this;
}

FaultSchedule &
FaultSchedule::linkFlapTrain(size_t link, sim::SimTime start,
                             sim::SimTime period,
                             unsigned dutyDownPercent, size_t cycles,
                             sim::SimTime jitterNs, uint64_t seed)
{
    if (period == 0)
        fatal("link flap train needs a non-zero period");
    if (dutyDownPercent == 0 || dutyDownPercent >= 100)
        fatal("link flap duty must be in (0, 100)");
    sim::SimTime down_time =
        period * sim::SimTime(dutyDownPercent) / 100;
    for (size_t c = 0; c < cycles; ++c) {
        sim::SimTime jitter =
            jitterNs == 0
                ? 0
                : sim::SimTime(jitterHash(seed, link, c) %
                               (uint64_t(jitterNs) + 1));
        sim::SimTime down_at =
            start + sim::SimTime(c) * period + jitter;
        linkDown(link, down_at);
        linkUp(link, down_at + down_time);
    }
    return *this;
}

FaultSchedule &
FaultSchedule::correlatedReset(const std::vector<size_t> &links,
                               sim::SimTime at)
{
    for (size_t link : links)
        sessionReset(link, at);
    return *this;
}

size_t
FaultSchedule::prefixEvents() const
{
    size_t count = 0;
    for (const FaultEvent &event : events_) {
        count += event.kind == FaultEvent::Kind::PrefixDown ||
                 event.kind == FaultEvent::Kind::PrefixUp;
    }
    return count;
}

std::vector<FaultEvent>
FaultSchedule::sorted() const
{
    std::vector<FaultEvent> events = events_;
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    return events;
}

std::vector<size_t>
crossShardLinks(const Topology &topology, const Partition &partition)
{
    std::vector<size_t> links;
    for (size_t l = 0; l < topology.linkCount(); ++l) {
        const Link &link = topology.link(l);
        if (partition.shardOf[link.a.node] !=
            partition.shardOf[link.b.node])
            links.push_back(l);
    }
    return links;
}

bgp::DampingConfig
churnDampingConfig()
{
    bgp::DampingConfig config;
    config.enabled = true;
    config.halfLifeSec = 2.0;
    return config;
}

ScenarioResult
ScenarioRunner::run()
{
    TopologySim &sim = sim_;
    PhaseRecorder phases(spec_.simConfig);
    bool faulted = !spec_.faults.empty();

    // Phase 1: establish. Fault-free specs measure from here (the
    // announce propagation is their subject).
    sim::SimTime mark = sim.now();
    bool converged = sim.runToConvergence(spec_.limitNs);
    if (!faulted)
        sim.tracker().markPhaseStart(sim.now());
    phases.phase("establish", mark, sim.now());

    // Phase 2: announce the workload.
    mark = sim.now();
    sim::SimTime at = sim.now();
    uint64_t originations = spec_.originations.size();
    if (!spec_.originations.empty()) {
        for (const auto &[node, prefix] : spec_.originations)
            sim.originate(node, prefix, at);
    } else {
        for (size_t node = 0; node < sim.topology().nodeCount();
             ++node) {
            if (!sim.topology().soleNodeOfAs(node))
                continue;
            for (size_t j = 0; j < spec_.prefixesPerNode; ++j)
                sim.originate(node, scenarioPrefix(node, j), at);
            originations += spec_.prefixesPerNode;
        }
    }
    converged = converged && sim.runToConvergence(spec_.limitNs);
    if (faulted)
        sim.tracker().markPhaseStart(sim.now());
    phases.phase("announce", mark, sim.now());

    // Phase 3: play the fault schedule (offsets are relative to the
    // announce-quiet instant) and re-converge.
    if (faulted) {
        mark = sim.now();
        sim::SimTime base = sim.now();
        for (const FaultEvent &event : spec_.faults.sorted())
            applyFault(sim, event, base + event.at);
        converged = converged && sim.runToConvergence(spec_.limitNs);
        phases.phase("reconverge", mark, sim.now());
    }

    ScenarioResult result;
    result.convergence = sim.report(spec_.name, spec_.shape);
    result.convergence.converged =
        converged && sim.locRibsConsistent();

    StabilityReport &stability = result.stability;
    stability.scenario = spec_.name;
    stability.shape = spec_.shape;
    stability.nodes = sim.topology().nodeCount();
    stability.injectedEvents =
        faulted ? spec_.faults.size() : originations;
    uint64_t prefix_events = spec_.faults.prefixEvents();
    stability.injectedTransactions =
        faulted ? (prefix_events ? prefix_events
                                 : stability.injectedEvents)
                : originations;
    stability.phaseUpdates = sim.tracker().phaseUpdatesDelivered();
    stability.phaseTransactions =
        sim.tracker().phaseTransactionsDelivered();
    stability.updatesPerConvergence =
        double(stability.phaseUpdates) /
        double(std::max<uint64_t>(1, stability.injectedEvents));
    stability.churnAmplification =
        double(stability.phaseTransactions) /
        double(std::max<uint64_t>(1, stability.injectedTransactions));
    stability.pathExplorationMax =
        result.convergence.pathExplorationMax;
    stability.pathExplorationMean =
        result.convergence.pathExplorationMean;
    for (size_t node = 0; node < sim.topology().nodeCount(); ++node) {
        const bgp::BgpSpeaker &speaker = sim.speaker(node);
        stability.dampingSuppressed +=
            sim.speaker(node).damper().suppressTransitions();
        stability.dampingReused +=
            sim.speaker(node).damper().reuseTransitions();
        stability.announcementsSuppressed +=
            speaker.counters().announcementsSuppressed;
        stability.mraiDeferrals += speaker.counters().mraiDeferrals;
    }

    if (spec_.simConfig.obs) {
        sim.publishParallelMetrics(spec_.simConfig.obs->metrics);
        // Path-exploration depth as a run histogram: one sample per
        // (router, prefix) pair, recorded from the already-merged
        // tracker so the distribution is layout-independent.
        obs::Histogram &exploration =
            spec_.simConfig.obs->metrics.histogram(
                obs::metric::topoPathExploration,
                {1, 2, 3, 4, 6, 8, 12, 16});
        sim.tracker().forEachExplored(
            [&](size_t, const net::Prefix &, size_t paths) {
                exploration.record(paths);
            });
    }
    return result;
}

namespace demo
{

ScenarioSpec
fourAsScenario()
{
    FourAsNetwork net = fourAsPolicyTopology();
    ScenarioSpec spec;
    spec.name = "four-as-demo";
    spec.shape = "four-as";
    spec.originations = {
        {net.backbone, net.backbonePrefix},
        {net.backbone, net.backboneSecondaryPrefix},
        {net.customer, net.customerPrefix},
        {net.ispB, net.martianPrefix},
    };
    spec.limitNs = sim::nsFromSec(60.0);
    spec.topology = std::move(net.topology);
    return spec;
}

} // namespace demo

} // namespace bgpbench::topo
