/**
 * @file
 * Tests for the convergence tracker, the scenario runner, and the
 * determinism of the JSON reports.
 */

#include <gtest/gtest.h>

#include "topo/scenario_spec.hh"

using namespace bgpbench;

namespace
{

/** Run @p topology as the scenario @p name, with optional faults. */
topo::ConvergenceReport
runScenario(topo::Topology topology, const char *shape,
            const char *name = "announce", topo::FaultSchedule faults = {},
            size_t prefixes_per_node = 1)
{
    topo::ScenarioSpec spec;
    spec.name = name;
    spec.shape = shape;
    spec.topology = std::move(topology);
    spec.prefixesPerNode = prefixes_per_node;
    spec.faults = std::move(faults);
    return topo::ScenarioRunner(std::move(spec)).run().convergence;
}

} // namespace

TEST(Scenarios, RandomTopologyConverges)
{
    // The benchmark's headline configuration: >= 20 routers of
    // preferential-attachment topology, every node originating one
    // prefix, run to full network-wide convergence.
    topo::ConvergenceReport report =
        runScenario(topo::Topology::barabasiAlbert(20, 2, 7), "random");
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(report.nodes, 20u);
    EXPECT_GT(report.convergenceTimeSec, 0.0);
    EXPECT_GT(report.totalUpdates, 0u);
    EXPECT_GE(report.totalTransactions, report.totalUpdates);
    ASSERT_EQ(report.routers.size(), 20u);
    for (const topo::RouterReport &router : report.routers) {
        EXPECT_GT(router.transactions, 0u);
        EXPECT_GT(router.tps, 0.0);
    }
    // A meshy graph forces path exploration: some router must have
    // seen more than one candidate path for some prefix.
    EXPECT_GT(report.pathExplorationMax, 1u);
}

TEST(Scenarios, SameSeedSameReport)
{
    auto run = []() {
        return runScenario(topo::Topology::barabasiAlbert(20, 2, 42),
                           "random")
            .toJson();
    };
    std::string first = run();
    std::string second = run();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);

    std::string other =
        runScenario(topo::Topology::barabasiAlbert(20, 2, 43), "random")
            .toJson();
    EXPECT_NE(first, other);
}

TEST(Scenarios, RingLinkFailureReconverges)
{
    // A ring survives any single link failure; the report covers only
    // the re-convergence phase after the cut.
    topo::ConvergenceReport report =
        runScenario(topo::Topology::ring(8), "ring", "link-failure",
                    topo::FaultSchedule().linkDown(0, 0));
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(report.scenario, "link-failure");
    EXPECT_GT(report.convergenceTimeSec, 0.0);
    EXPECT_GT(report.totalUpdates, 0u);
}

TEST(Scenarios, RouterRebootReconverges)
{
    topo::ConvergenceReport report = runScenario(
        topo::Topology::ring(6), "ring", "router-reboot",
        topo::FaultSchedule().routerRestart(0, 0, sim::nsFromMs(50)));
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(report.scenario, "router-reboot");
    EXPECT_GT(report.totalUpdates, 0u);
}

TEST(Scenarios, PrefixesPerNodeScalesWork)
{
    auto small = runScenario(topo::Topology::line(4), "line");
    auto large =
        runScenario(topo::Topology::line(4), "line", "announce", {}, 3);
    EXPECT_TRUE(small.converged);
    EXPECT_TRUE(large.converged);
    EXPECT_EQ(large.totalTransactions, 3u * small.totalTransactions);
}

TEST(ConvergenceReport, JsonShape)
{
    topo::ConvergenceReport report =
        runScenario(topo::Topology::line(3), "line");
    std::string json = report.toJson();
    EXPECT_NE(json.find("\"benchmark\": \"topo_convergence\""),
              std::string::npos);
    EXPECT_NE(json.find("\"scenario\": \"announce\""),
              std::string::npos);
    EXPECT_NE(json.find("\"shape\": \"line\""), std::string::npos);
    EXPECT_NE(json.find("\"convergence_time_s\""), std::string::npos);
    EXPECT_NE(json.find("\"routers\""), std::string::npos);
    EXPECT_NE(json.find("\"tps\""), std::string::npos);
}

TEST(ConvergenceTracker, PhaseClockRestarts)
{
    topo::ConvergenceTracker tracker;
    bgp::UpdateStats stats;
    stats.locRibChanges = 1;
    tracker.onUpdateProcessed(0, stats, 500);
    EXPECT_DOUBLE_EQ(tracker.convergenceTimeSec(), 500e-9);

    tracker.markPhaseStart(1000);
    EXPECT_DOUBLE_EQ(tracker.convergenceTimeSec(), 0.0);
    tracker.onUpdateProcessed(0, stats, 1750);
    EXPECT_DOUBLE_EQ(tracker.convergenceTimeSec(), 750e-9);

    // Updates that change nothing do not extend convergence.
    bgp::UpdateStats noop;
    tracker.onUpdateProcessed(0, noop, 9000);
    EXPECT_DOUBLE_EQ(tracker.convergenceTimeSec(), 750e-9);
}

TEST(ConvergenceTracker, PathExplorationCounts)
{
    topo::ConvergenceTracker tracker;
    net::Prefix prefix = net::Prefix::fromString("192.0.2.0/24");

    bgp::UpdateMessage msg;
    msg.nlri.push_back(prefix);
    bgp::PathAttributes attrs;
    attrs.asPath = bgp::AsPath::sequence({100});
    msg.attributes = bgp::makeAttributes(attrs);
    tracker.onUpdateDelivered(0, msg, 10);
    tracker.onUpdateDelivered(0, msg, 20); // same path: not distinct

    bgp::PathAttributes longer;
    longer.asPath = bgp::AsPath::sequence({200, 100});
    msg.attributes = bgp::makeAttributes(longer);
    tracker.onUpdateDelivered(0, msg, 30);

    EXPECT_EQ(tracker.distinctPathsExplored(0, prefix), 2u);
    EXPECT_EQ(tracker.distinctPathsExplored(1, prefix), 0u);
    EXPECT_EQ(tracker.maxPathsExplored(), 2u);
    EXPECT_DOUBLE_EQ(tracker.meanPathsExplored(), 2.0);
    EXPECT_EQ(tracker.updatesDelivered(), 3u);
}
