/**
 * @file
 * Router-level tests for the protocol extensions: route refresh and
 * flap damping flowing through the simulated system (costs charged,
 * pipeline drained).
 */

#include <gtest/gtest.h>

#include "core/test_peer.hh"
#include "router/router_system.hh"
#include "router/system_profiles.hh"
#include "workload/churn.hh"
#include "workload/update_stream.hh"

using namespace bgpbench;
using namespace bgpbench::router;

namespace
{

RouterConfig
config(bool damping = false)
{
    RouterConfig rc;
    rc.localAs = 65000;
    rc.routerId = 0x0a000001;
    rc.address = net::Ipv4Address(10, 0, 0, 1);
    bgp::PeerConfig p1;
    p1.id = 0;
    p1.asn = 65001;
    p1.address = net::Ipv4Address(10, 0, 1, 2);
    bgp::PeerConfig p2;
    p2.id = 1;
    p2.asn = 65002;
    p2.address = net::Ipv4Address(10, 0, 2, 2);
    rc.peers = {p1, p2};
    rc.damping.enabled = damping;
    return rc;
}

bool
runUntil(sim::Simulator &sim, const std::function<bool()> &cond,
         double limit_sec = 600.0)
{
    while (!cond()) {
        if (sim::toSeconds(sim.now()) > limit_sec)
            return false;
        sim.runUntil(sim.now() + sim::nsFromMs(1));
    }
    return true;
}

workload::StreamConfig
streamConfig(size_t per_packet = 10)
{
    workload::StreamConfig sc;
    sc.speakerAs = 65001;
    sc.nextHop = net::Ipv4Address(10, 0, 1, 2);
    sc.prefixesPerPacket = per_packet;
    return sc;
}

} // namespace

TEST(RouterFeatures, RouteRefreshResendsTableThroughPipeline)
{
    sim::Simulator sim;
    RouterSystem router(&sim, xeonProfile(), config());
    core::TestPeer peer1(&sim, core::TestPeerConfig{}, &router, 0);
    core::TestPeer peer2(
        &sim,
        core::TestPeerConfig{65002, 0x0a000202,
                             net::Ipv4Address(10, 0, 2, 2)},
        &router, 1);
    router.start();

    peer1.connect();
    ASSERT_TRUE(runUntil(sim, [&]() { return peer1.established(); }));

    workload::RouteSetConfig rsc;
    rsc.count = 80;
    auto routes = workload::generateRouteSet(rsc);
    peer1.enqueueStream(
        workload::buildAnnouncementStream(routes, streamConfig()));
    ASSERT_TRUE(runUntil(sim, [&]() {
        return router.controlDrained() && router.fib().size() == 80;
    }));

    peer2.connect();
    ASSERT_TRUE(runUntil(sim, [&]() {
        return peer2.established() &&
               peer2.counters().announcementsReceived >= 80 &&
               router.controlDrained();
    }));
    ASSERT_EQ(peer2.counters().announcementsReceived, 80u);

    // Peer 2 loses its table (e.g. an operator clear) and asks for a
    // refresh: the router re-sends all 80 routes, paced by the CPU.
    double t0 = sim::toSeconds(sim.now());
    peer2.sendRouteRefresh();
    ASSERT_TRUE(runUntil(sim, [&]() {
        return peer2.counters().announcementsReceived >= 160 &&
               router.controlDrained();
    }));
    EXPECT_EQ(peer2.counters().announcementsReceived, 160u);
    // The re-advertisement consumed simulated processing time.
    EXPECT_GT(sim::toSeconds(sim.now()), t0);
}

TEST(RouterFeatures, DampingSuppressesFlappersInRouter)
{
    sim::Simulator sim;
    RouterSystem router(&sim, xeonProfile(), config(true));
    core::TestPeer peer(&sim, core::TestPeerConfig{}, &router, 0);
    router.start();
    peer.connect();
    ASSERT_TRUE(runUntil(sim, [&]() { return peer.established(); }));

    workload::RouteSetConfig rsc;
    rsc.count = 100;
    auto routes = workload::generateRouteSet(rsc);
    peer.enqueueStream(
        workload::buildAnnouncementStream(routes, streamConfig()));
    ASSERT_TRUE(runUntil(sim, [&]() {
        return router.controlDrained() && router.fib().size() == 100;
    }));

    // Flap storm over 10 prefixes.
    workload::ChurnConfig cc;
    cc.stream = streamConfig();
    cc.events = 400;
    cc.flappingFraction = 0.1;
    cc.withdrawFraction = 0.5;
    peer.enqueueStream(buildChurnStream(routes, cc));
    ASSERT_TRUE(runUntil(sim, [&]() {
        return peer.sendComplete() && router.controlDrained();
    }));

    const auto &counters = router.speaker().counters();
    EXPECT_GT(counters.announcementsSuppressed, 0u);
    // Suppressed flappers are out of the table; stable routes stay.
    EXPECT_LT(router.speaker().locRib().size(), 100u);
    EXPECT_GE(router.speaker().locRib().size(), 90u);
    EXPECT_EQ(router.speaker().locRib().size(), router.fib().size());
}

TEST(RouterFeatures, DampingDisabledKeepsFullTable)
{
    sim::Simulator sim;
    RouterSystem router(&sim, xeonProfile(), config(false));
    core::TestPeer peer(&sim, core::TestPeerConfig{}, &router, 0);
    router.start();
    peer.connect();
    ASSERT_TRUE(runUntil(sim, [&]() { return peer.established(); }));

    workload::RouteSetConfig rsc;
    rsc.count = 100;
    auto routes = workload::generateRouteSet(rsc);
    peer.enqueueStream(
        workload::buildAnnouncementStream(routes, streamConfig()));
    ASSERT_TRUE(runUntil(sim, [&]() {
        return router.controlDrained() && router.fib().size() == 100;
    }));

    workload::ChurnConfig cc;
    cc.stream = streamConfig();
    cc.events = 400;
    cc.flappingFraction = 0.1;
    cc.withdrawFraction = 0.5;
    peer.enqueueStream(buildChurnStream(routes, cc));
    ASSERT_TRUE(runUntil(sim, [&]() {
        return peer.sendComplete() && router.controlDrained();
    }));

    EXPECT_EQ(router.speaker().counters().announcementsSuppressed,
              0u);
    // Churn converges back to the full table.
    EXPECT_EQ(router.speaker().locRib().size(), 100u);
    EXPECT_EQ(router.fib().size(), 100u);
}
