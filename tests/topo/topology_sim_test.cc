/**
 * @file
 * Tests for TopologySim: route propagation across chained routers
 * with correct eBGP/iBGP AS-path and NEXT_HOP semantics, plus fault
 * injection.
 */

#include <gtest/gtest.h>

#include "topo/topology_sim.hh"

using namespace bgpbench;

namespace
{

constexpr sim::SimTime kLimit = sim::nsFromSec(60.0);

topo::NodeConfig
node(const std::string &name, bgp::AsNumber asn, uint32_t id)
{
    topo::NodeConfig config;
    config.name = name;
    config.asn = asn;
    config.routerId = id;
    config.address = net::Ipv4Address(10, 0, uint8_t(id), 1);
    config.profile = router::xeonProfile();
    return config;
}

const bgp::LocRib::Entry *
ribEntry(const topo::TopologySim &sim, size_t at,
         const net::Prefix &prefix)
{
    return sim.speaker(at).locRib().find(prefix);
}

} // namespace

TEST(TopologySim, EbgpLinePropagation)
{
    // a(AS100) -- b(AS200) -- c(AS300): all eBGP. Each hop must
    // prepend its AS and rewrite NEXT_HOP to its own address.
    topo::Topology topo;
    topo.addNode(node("a", 100, 1));
    topo.addNode(node("b", 200, 2));
    topo.addNode(node("c", 300, 3));
    topo.addLink(0, 1, sim::nsFromMs(1), 100.0);
    topo.addLink(1, 2, sim::nsFromMs(1), 100.0);

    topo::TopologySim sim(topo);
    ASSERT_TRUE(sim.runToConvergence(kLimit));
    EXPECT_EQ(sim.speaker(0).sessionState(0),
              bgp::SessionState::Established);

    net::Prefix prefix = net::Prefix::fromString("192.0.2.0/24");
    sim.originate(0, prefix, sim.now());
    ASSERT_TRUE(sim.runToConvergence(kLimit));

    const auto *at_b = ribEntry(sim, 1, prefix);
    ASSERT_NE(at_b, nullptr);
    EXPECT_EQ(at_b->best.attributes->asPath.toString(), "100");
    EXPECT_EQ(at_b->best.attributes->nextHop, topo.node(0).address);

    const auto *at_c = ribEntry(sim, 2, prefix);
    ASSERT_NE(at_c, nullptr);
    EXPECT_EQ(at_c->best.attributes->asPath.toString(), "200 100");
    EXPECT_EQ(at_c->best.attributes->nextHop, topo.node(1).address);

    EXPECT_TRUE(sim.locRibsConsistent());
}

TEST(TopologySim, IbgpPreservesPathAndNextHop)
{
    // a(AS100) -- b(AS200) -- c(AS200): the b--c session is iBGP, so
    // b must pass the route on without prepending and without
    // touching NEXT_HOP (it still points at a).
    topo::Topology topo;
    topo.addNode(node("a", 100, 1));
    topo.addNode(node("b", 200, 2));
    topo.addNode(node("c", 200, 3));
    topo.addLink(0, 1, sim::nsFromMs(1), 100.0);
    topo.addLink(1, 2, sim::nsFromMs(1), 100.0);
    EXPECT_FALSE(topo.isIbgp(0));
    EXPECT_TRUE(topo.isIbgp(1));

    topo::TopologySim sim(topo);
    ASSERT_TRUE(sim.runToConvergence(kLimit));

    net::Prefix prefix = net::Prefix::fromString("192.0.2.0/24");
    sim.originate(0, prefix, sim.now());
    ASSERT_TRUE(sim.runToConvergence(kLimit));

    const auto *at_c = ribEntry(sim, 2, prefix);
    ASSERT_NE(at_c, nullptr);
    EXPECT_EQ(at_c->best.attributes->asPath.toString(), "100");
    EXPECT_EQ(at_c->best.attributes->nextHop, topo.node(0).address);
}

TEST(TopologySim, WithdrawPropagates)
{
    topo::Topology topo = topo::Topology::line(3);
    topo::TopologySim sim(topo);
    ASSERT_TRUE(sim.runToConvergence(kLimit));

    net::Prefix prefix = net::Prefix::fromString("192.0.2.0/24");
    sim.originate(0, prefix, sim.now());
    ASSERT_TRUE(sim.runToConvergence(kLimit));
    ASSERT_NE(ribEntry(sim, 2, prefix), nullptr);

    sim.withdrawLocal(0, prefix, sim.now());
    ASSERT_TRUE(sim.runToConvergence(kLimit));
    EXPECT_EQ(ribEntry(sim, 2, prefix), nullptr);
    EXPECT_TRUE(sim.originated().empty());
}

TEST(TopologySim, LinkDownFlushesAndLinkUpRelearns)
{
    topo::Topology topo = topo::Topology::line(3);
    topo::TopologySim sim(topo);
    ASSERT_TRUE(sim.runToConvergence(kLimit));

    net::Prefix prefix = net::Prefix::fromString("192.0.2.0/24");
    sim.originate(0, prefix, sim.now());
    ASSERT_TRUE(sim.runToConvergence(kLimit));

    // Cutting r1--r2 must withdraw the route from r2.
    sim.scheduleLinkDown(1, sim.now());
    ASSERT_TRUE(sim.runToConvergence(kLimit));
    EXPECT_FALSE(sim.linkUp(1));
    EXPECT_EQ(ribEntry(sim, 2, prefix), nullptr);
    EXPECT_NE(ribEntry(sim, 1, prefix), nullptr);
    EXPECT_TRUE(sim.locRibsConsistent());

    // Restoring the link re-establishes the session and the route
    // comes back with the full-table exchange.
    sim.scheduleLinkUp(1, sim.now());
    ASSERT_TRUE(sim.runToConvergence(kLimit));
    EXPECT_TRUE(sim.linkUp(1));
    ASSERT_NE(ribEntry(sim, 2, prefix), nullptr);
    EXPECT_EQ(ribEntry(sim, 2, prefix)->best.attributes->asPath
                  .toString(),
              "101 100");
}

TEST(TopologySim, SessionResetReconverges)
{
    topo::Topology topo = topo::Topology::line(3);
    topo::TopologySim sim(topo);
    ASSERT_TRUE(sim.runToConvergence(kLimit));

    net::Prefix prefix = net::Prefix::fromString("192.0.2.0/24");
    sim.originate(0, prefix, sim.now());
    ASSERT_TRUE(sim.runToConvergence(kLimit));

    sim.scheduleSessionReset(1, sim.now());
    ASSERT_TRUE(sim.runToConvergence(kLimit));
    EXPECT_EQ(sim.speaker(2).sessionState(1),
              bgp::SessionState::Established);
    ASSERT_NE(ribEntry(sim, 2, prefix), nullptr);
    EXPECT_TRUE(sim.locRibsConsistent());
}

TEST(TopologySim, RouterRestartRelearnsRoutes)
{
    topo::Topology topo = topo::Topology::line(3);
    topo::TopologySim sim(topo);
    ASSERT_TRUE(sim.runToConvergence(kLimit));

    net::Prefix prefix = net::Prefix::fromString("192.0.2.0/24");
    sim.originate(0, prefix, sim.now());
    ASSERT_TRUE(sim.runToConvergence(kLimit));

    sim.scheduleRouterRestart(1, sim.now(), sim::nsFromMs(50));
    ASSERT_TRUE(sim.runToConvergence(kLimit));
    EXPECT_EQ(sim.speaker(1).sessionState(0),
              bgp::SessionState::Established);
    EXPECT_EQ(sim.speaker(1).sessionState(1),
              bgp::SessionState::Established);
    ASSERT_NE(ribEntry(sim, 2, prefix), nullptr);
    EXPECT_TRUE(sim.locRibsConsistent());
}

TEST(TopologySim, ProcessingCostSlowsConvergence)
{
    // The same scenario on a slower SystemProfile must take longer in
    // virtual time: the per-node cost model is what paces the run.
    auto run = [](const router::SystemProfile &profile) {
        topo::GenOptions opts;
        opts.profile = profile;
        topo::Topology topo = topo::Topology::line(5, opts);
        topo::TopologySim sim(topo);
        sim.runToConvergence(kLimit);
        sim.tracker().markPhaseStart(sim.now());
        for (size_t i = 0; i < 5; ++i) {
            sim.originate(
                i,
                net::Prefix(net::Ipv4Address(100, 0, uint8_t(i), 0),
                            24),
                sim.now());
        }
        sim.runToConvergence(kLimit);
        return sim.tracker().convergenceTimeSec();
    };

    double fast = run(router::xeonProfile());
    double slow = run(router::pentium3Profile());
    EXPECT_GT(slow, fast);
}
