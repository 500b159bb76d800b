/**
 * @file
 * Router-level tests for the protocol extensions: route refresh and
 * flap damping flowing through the simulated system (costs charged,
 * pipeline drained).
 */

#include <gtest/gtest.h>

#include "core/benchmark_runner.hh"
#include "router/router_system.hh"
#include "router/system_profiles.hh"
#include "workload/churn.hh"
#include "workload/update_stream.hh"

using namespace bgpbench;
using namespace bgpbench::router;

namespace
{

/** The benchmark testbed's settings with a 600 s cap. */
core::BenchmarkConfig
config(bool damping = false)
{
    core::BenchmarkConfig c;
    c.dampingEnabled = damping;
    c.simTimeLimit = sim::nsFromSec(600.0);
    return c;
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
    core::Testbed tb(xeonProfile(), config());
    RouterSystem &router = tb.router();
    core::TestPeer &peer1 = tb.speaker1();
    core::TestPeer &peer2 = tb.speaker2();

    peer1.connect();
    ASSERT_TRUE(tb.runUntil([&]() { return peer1.established(); }));

    workload::RouteSetConfig rsc;
    rsc.count = 80;
    auto routes = workload::generateRouteSet(rsc);
    peer1.enqueueStream(
        workload::buildAnnouncementStream(routes, streamConfig()));
    ASSERT_TRUE(tb.runUntil([&]() {
        return router.controlDrained() && router.fib().size() == 80;
    }));

    peer2.connect();
    ASSERT_TRUE(tb.runUntil([&]() {
        return peer2.established() &&
               peer2.counters().announcementsReceived >= 80 &&
               router.controlDrained();
    }));
    ASSERT_EQ(peer2.counters().announcementsReceived, 80u);

    // Peer 2 loses its table (e.g. an operator clear) and asks for a
    // refresh: the router re-sends all 80 routes, paced by the CPU.
    double t0 = sim::toSeconds(tb.simulator().now());
    peer2.sendRouteRefresh();
    ASSERT_TRUE(tb.runUntil([&]() {
        return peer2.counters().announcementsReceived >= 160 &&
               router.controlDrained();
    }));
    EXPECT_EQ(peer2.counters().announcementsReceived, 160u);
    // The re-advertisement consumed simulated processing time.
    EXPECT_GT(sim::toSeconds(tb.simulator().now()), t0);
}

TEST(RouterFeatures, DampingSuppressesFlappersInRouter)
{
    core::Testbed tb(xeonProfile(), config(true));
    RouterSystem &router = tb.router();
    core::TestPeer &peer = tb.speaker1();
    peer.connect();
    ASSERT_TRUE(tb.runUntil([&]() { return peer.established(); }));

    workload::RouteSetConfig rsc;
    rsc.count = 100;
    auto routes = workload::generateRouteSet(rsc);
    peer.enqueueStream(
        workload::buildAnnouncementStream(routes, streamConfig()));
    ASSERT_TRUE(tb.runUntil([&]() {
        return router.controlDrained() && router.fib().size() == 100;
    }));

    // Flap storm over 10 prefixes.
    workload::ChurnConfig cc;
    cc.stream = streamConfig();
    cc.events = 400;
    cc.flappingFraction = 0.1;
    cc.withdrawFraction = 0.5;
    peer.enqueueStream(buildChurnStream(routes, cc));
    ASSERT_TRUE(tb.runUntil([&]() {
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
    core::Testbed tb(xeonProfile(), config(false));
    RouterSystem &router = tb.router();
    core::TestPeer &peer = tb.speaker1();
    peer.connect();
    ASSERT_TRUE(tb.runUntil([&]() { return peer.established(); }));

    workload::RouteSetConfig rsc;
    rsc.count = 100;
    auto routes = workload::generateRouteSet(rsc);
    peer.enqueueStream(
        workload::buildAnnouncementStream(routes, streamConfig()));
    ASSERT_TRUE(tb.runUntil([&]() {
        return router.controlDrained() && router.fib().size() == 100;
    }));

    workload::ChurnConfig cc;
    cc.stream = streamConfig();
    cc.events = 400;
    cc.flappingFraction = 0.1;
    cc.withdrawFraction = 0.5;
    peer.enqueueStream(buildChurnStream(routes, cc));
    ASSERT_TRUE(tb.runUntil([&]() {
        return peer.sendComplete() && router.controlDrained();
    }));

    EXPECT_EQ(router.speaker().counters().announcementsSuppressed,
              0u);
    // Churn converges back to the full table.
    EXPECT_EQ(router.speaker().locRib().size(), 100u);
    EXPECT_EQ(router.fib().size(), 100u);
}
