/**
 * @file
 * Determinism suite for the serve runner: attaching a snapshot
 * publisher and live reader threads to a scenario run must not change
 * the run — the convergence and stability reports stay byte-identical
 * to topo::ScenarioRunner on the same spec at every parallel job
 * count, fault-free or faulted. Readers live in host time; the
 * simulation lives in virtual time; any leak of one into the other
 * shows up here as a byte diff.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serve_runner.hh"
#include "topo/scenario_spec.hh"
#include "topo/topology.hh"

using namespace bgpbench;

namespace
{

const std::vector<size_t> kJobCounts = {1, 2, 4, 8};

/** Every rendering of both reports, concatenated. */
std::string
allRenderings(const topo::ScenarioResult &result)
{
    std::ostringstream os;
    os << result.convergence.toJson() << '\n';
    result.convergence.printCsv(os, true);
    result.convergence.printText(os);
    os << result.stability.toJson() << '\n';
    result.stability.printText(os);
    return os.str();
}

/** The announce scenario on a 10-node ring, two prefixes per node. */
topo::ScenarioSpec
ringSpec(size_t jobs)
{
    topo::ScenarioSpec spec;
    spec.shape = "ring";
    spec.topology = topo::Topology::ring(10);
    spec.prefixesPerNode = 2;
    spec.simConfig.jobs = jobs;
    return spec;
}

/** The same ring with its first link failed after announce. */
topo::ScenarioSpec
ringLinkFailureSpec(size_t jobs)
{
    topo::ScenarioSpec spec = ringSpec(jobs);
    spec.name = "link-failure";
    spec.faults.linkDown(0, 0);
    return spec;
}

serve::ServeRunConfig
serveConfig(topo::ScenarioSpec spec)
{
    serve::ServeRunConfig config;
    config.scenario = std::move(spec);
    config.engine.readers = 2;
    config.throughputPhase = false;
    return config;
}

std::string
runnerRenderings(topo::ScenarioSpec spec)
{
    return allRenderings(topo::ScenarioRunner(std::move(spec)).run());
}

} // namespace

TEST(ServeDeterminism, ReadersDoNotPerturbConvergence)
{
    std::string baseline = runnerRenderings(ringSpec(1));
    ASSERT_FALSE(baseline.empty());

    for (size_t jobs : kJobCounts) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        serve::ServeRunResult result =
            serve::runServeScenario(serveConfig(ringSpec(jobs)));
        EXPECT_EQ(allRenderings(result.scenario), baseline);
        EXPECT_TRUE(result.scenario.convergence.converged);
        // The publisher really ran: one epoch per decision flush.
        EXPECT_GT(result.snapshotsPublished, 0u);
        EXPECT_EQ(result.tableSize, 10u * 2u);
    }
}

TEST(ServeDeterminism, FaultedSpecMatchesScenarioRunner)
{
    // The read side rides any spec, not only announce: a link failure
    // with readers attached reports what ScenarioRunner reports.
    std::string baseline = runnerRenderings(ringLinkFailureSpec(1));
    ASSERT_NE(baseline.find("link-failure"), std::string::npos);

    for (size_t jobs : kJobCounts) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        EXPECT_EQ(runnerRenderings(ringLinkFailureSpec(jobs)), baseline);
        serve::ServeRunResult result =
            serve::runServeScenario(serveConfig(ringLinkFailureSpec(jobs)));
        EXPECT_EQ(allRenderings(result.scenario), baseline);
        EXPECT_TRUE(result.scenario.convergence.converged);
        EXPECT_GT(result.snapshotsPublished, 0u);
        // A ring survives one cut: node 0 still reaches every prefix.
        EXPECT_EQ(result.tableSize, 10u * 2u);
    }
}

TEST(ServeDeterminism, DetachedReadersMatchAttached)
{
    // Publisher-only (no reader threads at all) must also match a
    // run with readers attached, epoch for epoch.
    serve::ServeRunResult attached =
        serve::runServeScenario(serveConfig(ringSpec(2)));

    serve::ServeRunConfig without = serveConfig(ringSpec(2));
    without.concurrentReaders = false;
    serve::ServeRunResult detached = serve::runServeScenario(without);

    EXPECT_EQ(allRenderings(attached.scenario),
              allRenderings(detached.scenario));
    EXPECT_EQ(attached.snapshotsPublished, detached.snapshotsPublished);
    EXPECT_EQ(attached.finalEpoch, detached.finalEpoch);
    EXPECT_EQ(attached.tableSize, detached.tableSize);
}

TEST(ServeDeterminism, SnapshotGranularityDoesNotChangeOutcome)
{
    // Publishing every N decisions instead of per flush changes how
    // many epochs exist, not what the final table or report says.
    serve::ServeRunConfig per_flush = serveConfig(ringSpec(1));
    per_flush.concurrentReaders = false;
    serve::ServeRunResult flush_run = serve::runServeScenario(per_flush);

    serve::ServeRunConfig every_n = serveConfig(ringSpec(1));
    every_n.concurrentReaders = false;
    every_n.snapshotEvery = 8;
    serve::ServeRunResult n_run = serve::runServeScenario(every_n);

    EXPECT_EQ(allRenderings(flush_run.scenario),
              allRenderings(n_run.scenario));
    EXPECT_EQ(flush_run.tableSize, n_run.tableSize);
    EXPECT_NE(flush_run.snapshotsPublished, n_run.snapshotsPublished);
}
