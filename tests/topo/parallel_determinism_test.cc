/**
 * @file
 * Determinism regression suite for the parallel topology engine: for
 * a fixed topology and scenario, runs at jobs = 1, 2, 4, 8 (and auto)
 * must produce byte-identical JSON, CSV, and text reports — including
 * scenarios that inject faults while convergence traffic is still in
 * flight, which in a parallel run lands mid-lookahead-window.
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/observability.hh"
#include "obs/views.hh"
#include "topo/scenario_spec.hh"
#include "topo/scenarios.hh"
#include "topo/topology.hh"
#include "topo/topology_sim.hh"

using namespace bgpbench;

namespace
{

const std::vector<size_t> kJobCounts = {1, 2, 4, 8};

/** All three renderings of a report, concatenated. */
std::string
allRenderings(const topo::ConvergenceReport &report)
{
    std::ostringstream os;
    os << report.toJson() << '\n';
    report.printCsv(os, true);
    report.printText(os);
    return os.str();
}

/** A named scenario on @p topology, fault-free until faults are added. */
topo::ScenarioSpec
specOf(const char *name, const char *shape, topo::Topology topology)
{
    topo::ScenarioSpec spec;
    spec.name = name;
    spec.shape = shape;
    spec.topology = std::move(topology);
    return spec;
}

/** Worker threads TopologySim may start on this host. */
size_t
hardwareThreads()
{
    return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/**
 * Faults landing mid-window at @p jobs, reported as @p scenario: a
 * 20-node random graph with a link flap, a session reset and a router
 * restart scheduled while announcements are still in flight.
 */
topo::ConvergenceReport
midFlightFaultsReport(size_t jobs, const char *scenario)
{
    topo::TopologySimConfig config;
    config.jobs = jobs;
    topo::TopologySim sim(topo::Topology::barabasiAlbert(20, 2, 5),
                          config);
    for (size_t node = 0; node < 20; ++node)
        sim.originate(node, topo::scenarioPrefix(node, 0), 0);
    sim.scheduleLinkDown(2, sim::nsFromUs(300));
    sim.scheduleSessionReset(5, sim::nsFromUs(450));
    sim.scheduleLinkUp(2, sim::nsFromMs(2));
    sim.scheduleRouterRestart(1, sim::nsFromMs(3), sim::nsFromMs(10));
    bool converged = sim.runToConvergence(sim::nsFromSec(600.0));
    EXPECT_TRUE(converged);
    topo::ConvergenceReport report = sim.report(scenario, "random");
    report.converged = converged && sim.locRibsConsistent();
    return report;
}

/** Run @p spec at @p jobs worker threads. */
topo::ConvergenceReport
runAtJobs(topo::ScenarioSpec spec, size_t jobs,
          obs::RunObservability *obs = nullptr)
{
    spec.simConfig.jobs = jobs;
    spec.simConfig.obs = obs;
    return topo::ScenarioRunner(std::move(spec)).run().convergence;
}

/**
 * Run @p scenario once per job count and expect every rendering to
 * match the sequential baseline byte for byte.
 */
template <typename Fn>
void
expectIdenticalAcrossJobs(const char *label, Fn &&scenario)
{
    std::string baseline = allRenderings(scenario(size_t(1)));
    EXPECT_FALSE(baseline.empty());
    for (size_t jobs : kJobCounts) {
        SCOPED_TRACE(std::string(label) + " jobs=" +
                     std::to_string(jobs));
        EXPECT_EQ(allRenderings(scenario(jobs)), baseline);
    }
}

} // namespace

TEST(ParallelDeterminism, AnnounceOnMesh)
{
    expectIdenticalAcrossJobs("mesh announce", [](size_t jobs) {
        return runAtJobs(
            specOf("announce", "mesh", topo::Topology::fullMesh(12)),
            jobs);
    });
}

TEST(ParallelDeterminism, AnnounceOnRandomGraph)
{
    expectIdenticalAcrossJobs("ba announce", [](size_t jobs) {
        return runAtJobs(specOf("announce", "random",
                                topo::Topology::barabasiAlbert(24, 2, 42)),
                         jobs);
    });
}

TEST(ParallelDeterminism, LinkFailureOnRing)
{
    expectIdenticalAcrossJobs("ring link failure", [](size_t jobs) {
        topo::ScenarioSpec spec =
            specOf("link-failure", "ring", topo::Topology::ring(16));
        spec.faults.linkDown(3, 0);
        return runAtJobs(std::move(spec), jobs);
    });
}

TEST(ParallelDeterminism, RouterRebootOnRandomGraph)
{
    expectIdenticalAcrossJobs("ba reboot", [](size_t jobs) {
        topo::ScenarioSpec spec =
            specOf("router-reboot", "random",
                   topo::Topology::barabasiAlbert(24, 2, 7));
        spec.faults.routerRestart(0, 0, sim::nsFromMs(50));
        return runAtJobs(std::move(spec), jobs);
    });
}

TEST(ParallelDeterminism, FaultsInjectedMidConvergence)
{
    // Faults landing while announcement traffic is still in flight:
    // a link flap and a session reset are scheduled a few hundred
    // microseconds into convergence, far below the time the network
    // needs to settle, so parallel runs hit them mid-window.
    expectIdenticalAcrossJobs("mid-flight faults", [](size_t jobs) {
        return midFlightFaultsReport(jobs, "mid-flight");
    });
}

TEST(ParallelDeterminism, WithdrawMidConvergence)
{
    expectIdenticalAcrossJobs("withdraw", [](size_t jobs) {
        topo::TopologySimConfig config;
        config.jobs = jobs;
        topo::TopologySim sim(topo::Topology::ring(12), config);
        for (size_t node = 0; node < 12; ++node)
            sim.originate(node, topo::scenarioPrefix(node, 0), 0);
        sim.withdrawLocal(4, topo::scenarioPrefix(4, 0),
                          sim::nsFromUs(500));
        bool converged = sim.runToConvergence(sim::nsFromSec(600.0));
        EXPECT_TRUE(converged);
        topo::ConvergenceReport report = sim.report("withdraw", "ring");
        report.converged = converged && sim.locRibsConsistent();
        return report;
    });
}

TEST(ParallelDeterminism, AutoJobsMatchesSequential)
{
    auto run = [](size_t jobs) {
        return runAtJobs(
                   specOf("announce", "ring", topo::Topology::ring(12)),
                   jobs)
            .toJson();
    };
    // jobs = 0 resolves to the hardware concurrency, whatever that
    // is on the host; the report must still match.
    EXPECT_EQ(run(0), run(1));
}

TEST(ParallelDeterminism, EngineResolvesRequestedShards)
{
    // The engine over-decomposes: 4 workers get ~8 shards to steal
    // among; the worker count, capped at the hardware threads, is
    // what jobs() reports.
    const size_t workers = std::min<size_t>(4, hardwareThreads());
    topo::TopologySimConfig config;
    config.jobs = 4;
    topo::TopologySim sim(topo::Topology::ring(16), config);
    EXPECT_EQ(sim.jobs(), workers);
    EXPECT_EQ(sim.partition().shardCount, 8u);
    EXPECT_EQ(sim.partition().shardCount, topo::shardTarget(16, 4));

    for (size_t node = 0; node < 16; ++node)
        sim.originate(node, topo::scenarioPrefix(node, 0), 0);
    ASSERT_TRUE(sim.runToConvergence(sim::nsFromSec(600.0)));

    obs::MetricRegistry metrics;
    sim.publishParallelMetrics(metrics);
    EXPECT_EQ(metrics.gaugeValue(obs::metric::parallelJobs),
              double(workers));
    EXPECT_EQ(metrics.gaugeValue(obs::metric::parallelShards), 8.0);
    EXPECT_GT(metrics.counterValue(obs::metric::parallelWindows), 0u);
    EXPECT_GT(metrics.counterValue(obs::metric::topoWindowLenNs), 0u);
    EXPECT_GT(metrics.gaugeValue(obs::metric::parallelLookaheadNs),
              0.0);
    uint64_t events = 0;
    for (size_t shard = 0; shard < 8; ++shard) {
        EXPECT_EQ(metrics.gaugeValue(
                      obs::shardMetricName(shard, "nodes")),
                  2.0);
        events += metrics.counterValue(
            obs::shardMetricName(shard, "events"));
    }
    EXPECT_GT(events, 0u);
}

TEST(ParallelDeterminism, AdaptiveSyncMatrixIsByteIdentical)
{
    // The full matrix: jobs 1/2/4/8 with faults landing mid-window,
    // all byte-identical to the one-shard baseline. This is the
    // acceptance bar of the window loop: the causality-bounded
    // windows, the batch merge, and the stealing may change the
    // execution schedule, never a report byte.
    auto run = [](size_t jobs) {
        return allRenderings(midFlightFaultsReport(jobs, "adaptive-matrix"));
    };
    std::string baseline = run(1);
    EXPECT_FALSE(baseline.empty());
    for (size_t jobs : kJobCounts) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        EXPECT_EQ(run(jobs), baseline);
    }
}

TEST(ParallelDeterminism, DeliveredUpdatesEqualProcessed)
{
    // The tracker counts the UPDATEs the speakers decode; with every
    // session Established when its UPDATEs land, that is what the
    // routers processed, even with segments lost to the faults.
    for (size_t jobs : kJobCounts) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        topo::ConvergenceReport report =
            midFlightFaultsReport(jobs, "adaptive-matrix");
        uint64_t received = 0;
        uint64_t transactions = 0;
        for (const topo::RouterReport &router : report.routers) {
            received += router.updatesReceived;
            transactions += router.transactions;
        }
        EXPECT_GT(report.droppedSegments, 0u);
        EXPECT_GT(report.totalUpdates, 0u);
        EXPECT_EQ(report.totalUpdates, received);
        EXPECT_EQ(report.totalTransactions, transactions);
    }
}

TEST(ParallelDeterminism, TracingDoesNotPerturbReports)
{
    // The observability layer must be a pure observer: attaching a
    // registry and trace buffer (and varying the job count under
    // them) cannot change a single report byte relative to the
    // detached sequential baseline.
    auto run = [](size_t jobs, obs::RunObservability *obs) {
        topo::ScenarioSpec spec =
            specOf("link-failure", "ring", topo::Topology::ring(12));
        spec.faults.linkDown(0, 0);
        return allRenderings(runAtJobs(std::move(spec), jobs, obs));
    };
    std::string baseline = run(1, nullptr);
    EXPECT_FALSE(baseline.empty());
    for (size_t jobs : kJobCounts) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        obs::RunObservability obs;
        EXPECT_EQ(run(jobs, &obs), baseline);
        EXPECT_EQ(run(jobs, nullptr), baseline);
        // The traced run actually observed something.
        EXPECT_FALSE(obs.trace.empty());
    }
}

TEST(ParallelDeterminism, ShardCountClampsToNodes)
{
    topo::TopologySimConfig config;
    config.jobs = 64;
    topo::TopologySim sim(topo::Topology::line(3), config);
    EXPECT_EQ(sim.jobs(), std::min<size_t>(3, hardwareThreads()));
    for (size_t node = 0; node < 3; ++node)
        sim.originate(node, topo::scenarioPrefix(node, 0), 0);
    EXPECT_TRUE(sim.runToConvergence(sim::nsFromSec(600.0)));
    EXPECT_TRUE(sim.locRibsConsistent());
}

TEST(ParallelDeterminism, WorkersCappedAtHardwareThreads)
{
    // jobs 16 still shards ring(64) for 16 workers, but starts no
    // more threads than the host has; the report stays that of jobs 1.
    auto spec = [] {
        return specOf("announce", "ring", topo::Topology::ring(64));
    };
    topo::TopologySimConfig config;
    config.jobs = 16;
    topo::TopologySim sim(topo::Topology::ring(64), config);
    EXPECT_LE(sim.jobs(), hardwareThreads());
    EXPECT_EQ(sim.partition().shardCount, 32u);
    EXPECT_EQ(allRenderings(runAtJobs(spec(), 16)),
              allRenderings(runAtJobs(spec(), 1)));
}

TEST(ParallelDeterminism, ZeroLatencyCutFallsBackToSequential)
{
    // Zero-latency links leave no conservative lookahead; the engine
    // must degrade to one shard instead of deadlocking on empty
    // windows.
    topo::Topology topo;
    for (size_t i = 0; i < 4; ++i)
        topo.addNode(topo::Topology::defaultNode(i, {}));
    for (size_t i = 0; i + 1 < 4; ++i)
        topo.addLink(i, i + 1, 0, 100.0);

    topo::TopologySimConfig config;
    config.jobs = 2;
    topo::TopologySim sim(std::move(topo), config);
    EXPECT_EQ(sim.jobs(), 1u);
    for (size_t node = 0; node < 4; ++node)
        sim.originate(node, topo::scenarioPrefix(node, 0), 0);
    EXPECT_TRUE(sim.runToConvergence(sim::nsFromSec(600.0)));
    EXPECT_TRUE(sim.locRibsConsistent());
}
