/**
 * @file
 * Tests for the scripted test speaker.
 */

#include <gtest/gtest.h>

#include "core/test_peer.hh"
#include "net/logging.hh"
#include "router/system_profiles.hh"
#include "workload/update_stream.hh"

using namespace bgpbench;
using namespace bgpbench::core;

namespace
{

router::RouterConfig
oneRouterConfig()
{
    router::RouterConfig rc;
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
    return rc;
}

bool
runUntil(sim::Simulator &sim, const std::function<bool()> &cond,
         double limit_sec = 120.0)
{
    while (!cond()) {
        if (sim::toSeconds(sim.now()) > limit_sec)
            return false;
        sim.runUntil(sim.now() + sim::nsFromMs(1));
    }
    return true;
}

} // namespace

TEST(TestPeer, EstablishesAgainstRouter)
{
    sim::Simulator sim;
    router::RouterSystem router(&sim, router::xeonProfile(),
                                oneRouterConfig());
    TestPeer peer(&sim, TestPeerConfig{}, &router, 0);
    router.start();

    EXPECT_FALSE(peer.established());
    peer.connect();
    ASSERT_TRUE(runUntil(sim, [&]() { return peer.established(); }));
    EXPECT_GE(peer.counters().keepalivesReceived, 1u);
    EXPECT_GT(peer.counters().segmentsSent, 0u);
}

TEST(TestPeer, DoubleConnectPanics)
{
    sim::Simulator sim;
    router::RouterSystem router(&sim, router::xeonProfile(),
                                oneRouterConfig());
    TestPeer peer(&sim, TestPeerConfig{}, &router, 0);
    router.start();
    peer.connect();
    EXPECT_THROW(peer.connect(), PanicError);
}

TEST(TestPeer, StreamQueuedBeforeEstablishmentFlowsAfter)
{
    sim::Simulator sim;
    router::RouterSystem router(&sim, router::xeonProfile(),
                                oneRouterConfig());
    TestPeer peer(&sim, TestPeerConfig{}, &router, 0);
    router.start();

    workload::RouteSetConfig rsc;
    rsc.count = 30;
    auto routes = workload::generateRouteSet(rsc);
    workload::StreamConfig sc;
    sc.speakerAs = 65001;
    sc.nextHop = net::Ipv4Address(10, 0, 1, 2);
    peer.enqueueStream(workload::buildAnnouncementStream(routes, sc));
    EXPECT_FALSE(peer.sendComplete()); // not established yet

    peer.connect();
    ASSERT_TRUE(runUntil(sim, [&]() {
        return peer.sendComplete() && router.controlDrained();
    }));
    EXPECT_EQ(router.speaker().counters().announcementsProcessed,
              30u);
}

TEST(TestPeer, CountsUpdatesFromRouter)
{
    sim::Simulator sim;
    router::RouterSystem router(&sim, router::xeonProfile(),
                                oneRouterConfig());
    TestPeer peer1(&sim,
                   TestPeerConfig{65001, 0x0a000102,
                                  net::Ipv4Address(10, 0, 1, 2)},
                   &router, 0);
    TestPeer peer2(&sim,
                   TestPeerConfig{65002, 0x0a000202,
                                  net::Ipv4Address(10, 0, 2, 2)},
                   &router, 1);
    router.start();

    peer1.connect();
    ASSERT_TRUE(runUntil(sim, [&]() { return peer1.established(); }));

    workload::RouteSetConfig rsc;
    rsc.count = 40;
    auto routes = workload::generateRouteSet(rsc);
    workload::StreamConfig sc;
    sc.speakerAs = 65001;
    sc.nextHop = net::Ipv4Address(10, 0, 1, 2);
    sc.prefixesPerPacket = 10;
    peer1.enqueueStream(
        workload::buildAnnouncementStream(routes, sc));
    ASSERT_TRUE(runUntil(sim, [&]() {
        return router.controlDrained() &&
               router.fib().size() == 40;
    }));

    peer2.connect();
    ASSERT_TRUE(runUntil(sim, [&]() {
        return peer2.established() &&
               peer2.counters().announcementsReceived >= 40;
    }));
    EXPECT_EQ(peer2.counters().announcementsReceived, 40u);
    EXPECT_EQ(peer2.counters().withdrawalsReceived, 0u);
    EXPECT_GT(peer2.counters().updatesReceived, 0u);
}
