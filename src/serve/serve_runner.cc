#include "serve/serve_runner.hh"

#include <chrono>

#include "serve/publisher.hh"
#include "topo/scenarios.hh"

namespace bgpbench::serve
{

namespace
{

uint64_t
hostNowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/**
 * The query-target population: the scenario's prefix grid
 * (topo::scenarioPrefix) at the nodes that originate it,
 * hottest-first in origination order.
 */
std::vector<net::Prefix>
serveTargets(const topo::Topology &topology, size_t prefixesPerNode)
{
    std::vector<net::Prefix> targets;
    targets.reserve(topology.nodeCount() * prefixesPerNode);
    for (size_t node = 0; node < topology.nodeCount(); ++node) {
        if (!topology.soleNodeOfAs(node))
            continue;
        for (size_t j = 0; j < prefixesPerNode; ++j)
            targets.push_back(topo::scenarioPrefix(node, j));
    }
    return targets;
}

} // namespace

ServeRunResult
runServeScenario(const ServeRunConfig &config)
{
    ServeRunResult result;
    obs::RunObservability *obs = config.scenario.simConfig.obs;
    topo::ScenarioRunner runner(config.scenario);

    // Node 0's Loc-RIB is the one published.
    SnapshotPublisher publisher;
    runner.sim().speaker(0).bindRibListener(&publisher,
                                            config.snapshotEvery);

    std::vector<net::Prefix> targets =
        serveTargets(runner.sim().topology(),
                     config.scenario.prefixesPerNode);

    // Two engines so the two phases report independently: the paced
    // one rides the scenario run, the fixed one measures capacity
    // against the settled table afterwards.
    QueryEngine paced(publisher, targets, config.engine);
    if (config.concurrentReaders)
        paced.startPaced();

    const uint64_t hostStart = hostNowNs();
    result.scenario = runner.run();
    result.convergenceHostNs = hostNowNs() - hostStart;

    if (config.concurrentReaders) {
        paced.stop();
        result.concurrent = paced.report();
        if (obs)
            paced.absorbInto(obs->metrics);
    }

    if (config.throughputPhase) {
        QueryEngine fixed(publisher, targets, config.engine);
        result.throughput = fixed.runFixed();
        if (obs)
            fixed.absorbInto(obs->metrics);
    }

    RibSnapshotPtr final_snapshot = publisher.current();
    result.snapshotsPublished = publisher.published();
    result.finalEpoch = final_snapshot->epoch();
    result.tableSize = final_snapshot->size();
    return result;
}

} // namespace bgpbench::serve
