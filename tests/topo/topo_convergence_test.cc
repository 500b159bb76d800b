/**
 * @file
 * Tests for the convergence tracker, the scenario runner, and the
 * determinism of the JSON reports.
 */

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/attr_intern.hh"
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
    // The clock runs to the phase's last UPDATE delivery or session
    // state change, whatever the UPDATE did to the routes.
    topo::ConvergenceTracker tracker;
    bgp::UpdateMessage update;
    tracker.onUpdateDelivered(0, update, 500);
    EXPECT_DOUBLE_EQ(tracker.convergenceTimeSec(), 500e-9);

    tracker.markPhaseStart(1000);
    EXPECT_DOUBLE_EQ(tracker.convergenceTimeSec(), 0.0);
    tracker.onUpdateDelivered(0, update, 1750);
    EXPECT_DOUBLE_EQ(tracker.convergenceTimeSec(), 750e-9);
    tracker.onSessionChange(1, 2500);
    EXPECT_DOUBLE_EQ(tracker.convergenceTimeSec(), 1500e-9);

    // An event of another node at an earlier instant keeps the clock.
    tracker.onUpdateDelivered(2, update, 2000);
    EXPECT_DOUBLE_EQ(tracker.convergenceTimeSec(), 1500e-9);
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

namespace
{

const net::Prefix kExplored = net::Prefix::fromString("192.0.2.0/24");

/** An UPDATE announcing @p prefix with @p attributes. */
bgp::UpdateMessage
announce(bgp::PathAttributesPtr attributes,
         net::Prefix prefix = kExplored)
{
    bgp::UpdateMessage msg;
    msg.nlri.push_back(prefix);
    msg.attributes = std::move(attributes);
    return msg;
}

/** Attributes holding only @p path. */
bgp::PathAttributes
withPath(bgp::AsPath path)
{
    bgp::PathAttributes attrs;
    attrs.asPath = std::move(path);
    return attrs;
}

bgp::AsPath::Segment
segment(bgp::AsPath::SegmentType type, std::vector<bgp::AsNumber> asns)
{
    return bgp::AsPath::Segment{type, std::move(asns)};
}

/** Every (node, prefix, paths) triple, sorted. */
std::vector<std::tuple<size_t, net::Prefix, size_t>>
exploredTriples(const topo::ConvergenceTracker &tracker)
{
    std::vector<std::tuple<size_t, net::Prefix, size_t>> out;
    tracker.forEachExplored(
        [&](size_t node, const net::Prefix &prefix, size_t paths) {
            out.emplace_back(node, prefix, paths);
        });
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

TEST(ConvergenceTracker, PathIgnoresTheOtherAttributes)
{
    topo::ConvergenceTracker tracker;
    bgp::PathAttributes attrs = withPath(bgp::AsPath::sequence({100}));
    attrs.med = 10;
    tracker.onUpdateDelivered(0, announce(bgp::makeAttributes(attrs)), 0);
    attrs.med = 20;
    tracker.onUpdateDelivered(0, announce(bgp::makeAttributes(attrs)), 0);
    EXPECT_EQ(tracker.distinctPathsExplored(0, kExplored), 1u);
}

TEST(ConvergenceTracker, PathEqualAcrossInterners)
{
    // Two interners stand in for two worker threads: the same value
    // comes back as two distinct canonical pointers.
    bgp::AttributeInterner one;
    bgp::AttributeInterner two;
    bgp::PathAttributes attrs =
        withPath(bgp::AsPath::sequence({64601, 64602}));
    bgp::PathAttributesPtr a = one.intern(attrs);
    bgp::PathAttributesPtr b = two.intern(attrs);
    ASSERT_NE(a, b);

    topo::ConvergenceTracker tracker;
    tracker.onUpdateDelivered(0, announce(a), 0);
    tracker.onUpdateDelivered(0, announce(b), 0);
    EXPECT_EQ(tracker.distinctPathsExplored(0, kExplored), 1u);
}

TEST(ConvergenceTracker, SplitSequenceIsTheUnsplitPath)
{
    // "64601 64602" either way, as AsPath::toString() renders both.
    bgp::AsPath split;
    split.addSegment(segment(bgp::AsPath::SegmentType::AsSequence,
                             {64601}));
    split.addSegment(segment(bgp::AsPath::SegmentType::AsSequence,
                             {64602}));
    bgp::AsPath whole = bgp::AsPath::sequence({64601, 64602});
    ASSERT_EQ(split.toString(), whole.toString());

    topo::ConvergenceTracker tracker;
    tracker.onUpdateDelivered(
        0, announce(bgp::makeAttributes(withPath(split))), 0);
    tracker.onUpdateDelivered(
        0, announce(bgp::makeAttributes(withPath(whole))), 0);
    EXPECT_EQ(tracker.distinctPathsExplored(0, kExplored), 1u);
}

TEST(ConvergenceTracker, SetIsNotASequence)
{
    bgp::AsPath set;
    set.addSegment(
        segment(bgp::AsPath::SegmentType::AsSet, {64601, 64602}));

    topo::ConvergenceTracker tracker;
    tracker.onUpdateDelivered(
        0, announce(bgp::makeAttributes(withPath(set))), 0);
    tracker.onUpdateDelivered(
        0,
        announce(bgp::makeAttributes(
            withPath(bgp::AsPath::sequence({64601, 64602})))),
        0);
    EXPECT_EQ(tracker.distinctPathsExplored(0, kExplored), 2u);
}

TEST(ConvergenceTracker, AbsorbOrderDoesNotMatter)
{
    // Two shard trackers that overlap on (0, kExplored): one path in
    // both (interned apart, as two workers would), one path each.
    net::Prefix other = net::Prefix::fromString("198.51.100.0/24");
    auto shards = [&]() {
        bgp::AttributeInterner one;
        bgp::AttributeInterner two;
        bgp::PathAttributes shared =
            withPath(bgp::AsPath::sequence({100, 200}));
        std::vector<topo::ConvergenceTracker> out(2);
        out[0].onUpdateDelivered(0, announce(one.intern(shared)), 5);
        out[0].onUpdateDelivered(
            0,
            announce(one.intern(withPath(bgp::AsPath::sequence({300})))),
            6);
        out[0].onUpdateDelivered(2, announce(one.intern(shared), other),
                                 7);
        out[1].onUpdateDelivered(0, announce(two.intern(shared)), 8);
        out[1].onUpdateDelivered(
            0,
            announce(two.intern(withPath(bgp::AsPath::sequence({400})))),
            9);
        return out;
    };

    topo::ConvergenceTracker forward;
    std::vector<topo::ConvergenceTracker> a = shards();
    forward.absorb(a[0]);
    forward.absorb(a[1]);
    topo::ConvergenceTracker backward;
    std::vector<topo::ConvergenceTracker> b = shards();
    backward.absorb(b[1]);
    backward.absorb(b[0]);

    using Triple = std::tuple<size_t, net::Prefix, size_t>;
    std::vector<Triple> expected = {Triple{0, kExplored, 3},
                                    Triple{2, other, 1}};
    EXPECT_EQ(exploredTriples(forward), expected);
    EXPECT_EQ(exploredTriples(backward), expected);
    EXPECT_EQ(forward.maxPathsExplored(), 3u);
    EXPECT_EQ(backward.maxPathsExplored(), 3u);
    EXPECT_DOUBLE_EQ(forward.meanPathsExplored(), 2.0);
    EXPECT_DOUBLE_EQ(backward.meanPathsExplored(), 2.0);
    EXPECT_EQ(forward.updatesDelivered(), 5u);
    EXPECT_EQ(backward.updatesDelivered(), 5u);
}

TEST(ConvergenceTracker, WithdrawOnlyUpdateAddsNoKey)
{
    topo::ConvergenceTracker tracker;
    bgp::UpdateMessage withdraw;
    withdraw.withdrawnRoutes = {kExplored,
                                net::Prefix::fromString("10.0.0.0/8")};
    tracker.onUpdateDelivered(0, withdraw, 10);
    EXPECT_EQ(tracker.updatesDelivered(), 1u);
    EXPECT_EQ(tracker.transactionsDelivered(), 2u);
    EXPECT_EQ(tracker.distinctPathsExplored(0, kExplored), 0u);
    EXPECT_EQ(tracker.maxPathsExplored(), 0u);
    EXPECT_TRUE(exploredTriples(tracker).empty());
}
