/**
 * @file
 * Asserts the behaviour demonstrated by examples/bgp_network.cpp:
 * the four-AS policy topology, its steady state, and its failover.
 */

#include <gtest/gtest.h>

#include "topo/scenarios.hh"

using namespace bgpbench;
using topo::demo::FourAsNetwork;

namespace
{

constexpr sim::SimTime kLimit = sim::nsFromSec(60.0);

struct DemoRun
{
    FourAsNetwork net;
    topo::TopologySim sim;

    DemoRun()
        : net(topo::demo::fourAsPolicyTopology()), sim(net.topology)
    {
        sim.runToConvergence(kLimit);
        topo::demo::originateDemoRoutes(sim, net, sim.now());
        sim.runToConvergence(kLimit);
    }

    std::string
    pathAt(size_t node, const net::Prefix &prefix) const
    {
        const auto *entry = sim.speaker(node).locRib().find(prefix);
        if (!entry)
            return "<absent>";
        return entry->best.attributes->asPath.toString();
    }

    net::Ipv4Address
    nextHopAt(size_t node, const net::Prefix &prefix) const
    {
        const auto *entry = sim.speaker(node).locRib().find(prefix);
        return entry ? entry->best.attributes->nextHop
                     : net::Ipv4Address();
    }
};

} // namespace

TEST(NetworkExample, SteadyStatePolicies)
{
    DemoRun run;
    const FourAsNetwork &net = run.net;

    // LOCAL_PREF 200 steers the customer through isp-a even though
    // both ISPs offer equally long paths to the backbone.
    EXPECT_EQ(run.pathAt(net.customer, net.backbonePrefix),
              "200 400");
    EXPECT_EQ(run.pathAt(net.customer, net.backboneSecondaryPrefix),
              "200 400");
    EXPECT_EQ(run.nextHopAt(net.customer, net.backbonePrefix),
              net.topology.node(net.ispA).address);

    // The backbone reaches the customer via isp-a: isp-b's double
    // prepend makes its path four hops instead of two.
    EXPECT_EQ(run.pathAt(net.backbone, net.customerPrefix),
              "200 100");

    // isp-b's martian is filtered on both backbone sessions but
    // reaches the customer, which applies no such filter.
    EXPECT_EQ(run.sim.speaker(net.backbone)
                  .locRib()
                  .find(net.martianPrefix),
              nullptr);
    EXPECT_EQ(run.pathAt(net.customer, net.martianPrefix), "300");
}

TEST(NetworkExample, FailoverToBackupIsp)
{
    DemoRun run;
    const FourAsNetwork &net = run.net;

    run.sim.tracker().markPhaseStart(run.sim.now());
    run.sim.scheduleLinkDown(net.customerIspALink, run.sim.now());
    ASSERT_TRUE(run.sim.runToConvergence(kLimit));
    EXPECT_GT(run.sim.tracker().convergenceTimeSec(), 0.0);

    // The customer fails over to isp-b's longer paths...
    EXPECT_EQ(run.pathAt(net.customer, net.backbonePrefix),
              "300 400");
    EXPECT_EQ(run.nextHopAt(net.customer, net.backbonePrefix),
              net.topology.node(net.ispB).address);

    // ...and the backbone now sees the prepended backup path.
    EXPECT_EQ(run.pathAt(net.backbone, net.customerPrefix),
              "300 300 300 100");
}

TEST(NetworkExample, MartianNeverLeaksToBackbone)
{
    DemoRun run;
    const FourAsNetwork &net = run.net;

    // Even after the failover reshuffles every path, the martian
    // filter must hold.
    run.sim.scheduleLinkDown(net.customerIspALink, run.sim.now());
    ASSERT_TRUE(run.sim.runToConvergence(kLimit));
    EXPECT_EQ(run.sim.speaker(net.backbone)
                  .locRib()
                  .find(net.martianPrefix),
              nullptr);
    EXPECT_EQ(run.pathAt(net.customer, net.martianPrefix), "300");
}

TEST(NetworkExample, ConsistencyCheckFailsWhileUpdatesAreInFlight)
{
    // locRibsConsistent compares each Adj-RIB-In with the far end's
    // Adj-RIB-Out after the receiving end's import policy, which here
    // sets LOCAL_PREF on one link and rejects the martian on two.
    // Stopped before any UPDATE can cross a link, the origins hold
    // routes their neighbours have not heard of.
    FourAsNetwork net = topo::demo::fourAsPolicyTopology();
    topo::TopologySim network(net.topology);
    ASSERT_TRUE(network.runToConvergence(kLimit));
    EXPECT_TRUE(network.locRibsConsistent());

    const sim::SimTime start = network.now();
    topo::demo::originateDemoRoutes(network, net, start);
    const sim::SimTime latency = net.topology.link(0).latencyNs;
    EXPECT_FALSE(network.runToConvergence(start + latency / 2));
    EXPECT_FALSE(network.locRibsConsistent());

    EXPECT_TRUE(network.runToConvergence(kLimit));
    EXPECT_TRUE(network.locRibsConsistent());
}
