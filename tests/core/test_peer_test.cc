/**
 * @file
 * Tests for the scripted test speaker.
 */

#include <gtest/gtest.h>

#include "core/benchmark_runner.hh"
#include "net/logging.hh"
#include "router/system_profiles.hh"
#include "workload/update_stream.hh"

using namespace bgpbench;
using namespace bgpbench::core;

namespace
{

/** The benchmark testbed's settings with a 120 s cap. */
BenchmarkConfig
capped()
{
    BenchmarkConfig config;
    config.simTimeLimit = sim::nsFromSec(120.0);
    return config;
}

} // namespace

TEST(TestPeer, EstablishesAgainstRouter)
{
    Testbed tb(router::xeonProfile(), capped());
    TestPeer &peer = tb.speaker1();

    EXPECT_FALSE(peer.established());
    peer.connect();
    ASSERT_TRUE(tb.runUntil([&]() { return peer.established(); }));
    EXPECT_GE(peer.counters().keepalivesReceived, 1u);
    EXPECT_GT(peer.counters().segmentsSent, 0u);
}

TEST(TestPeer, DoubleConnectPanics)
{
    Testbed tb(router::xeonProfile(), capped());
    tb.speaker1().connect();
    EXPECT_THROW(tb.speaker1().connect(), PanicError);
}

TEST(TestPeer, StreamQueuedBeforeEstablishmentFlowsAfter)
{
    Testbed tb(router::xeonProfile(), capped());
    TestPeer &peer = tb.speaker1();

    workload::RouteSetConfig rsc;
    rsc.count = 30;
    auto routes = workload::generateRouteSet(rsc);
    workload::StreamConfig sc;
    sc.speakerAs = 65001;
    sc.nextHop = net::Ipv4Address(10, 0, 1, 2);
    peer.enqueueStream(workload::buildAnnouncementStream(routes, sc));
    EXPECT_FALSE(peer.sendComplete()); // not established yet

    peer.connect();
    ASSERT_TRUE(tb.runUntil([&]() {
        return peer.sendComplete() && tb.router().controlDrained();
    }));
    EXPECT_EQ(tb.router().speaker().counters().announcementsProcessed,
              30u);
}

TEST(TestPeer, CountsUpdatesFromRouter)
{
    Testbed tb(router::xeonProfile(), capped());
    router::RouterSystem &router = tb.router();
    TestPeer &peer1 = tb.speaker1();
    TestPeer &peer2 = tb.speaker2();

    peer1.connect();
    ASSERT_TRUE(tb.runUntil([&]() { return peer1.established(); }));

    workload::RouteSetConfig rsc;
    rsc.count = 40;
    auto routes = workload::generateRouteSet(rsc);
    workload::StreamConfig sc;
    sc.speakerAs = 65001;
    sc.nextHop = net::Ipv4Address(10, 0, 1, 2);
    sc.prefixesPerPacket = 10;
    peer1.enqueueStream(
        workload::buildAnnouncementStream(routes, sc));
    ASSERT_TRUE(tb.runUntil([&]() {
        return router.controlDrained() &&
               router.fib().size() == 40;
    }));

    peer2.connect();
    ASSERT_TRUE(tb.runUntil([&]() {
        return peer2.established() &&
               peer2.counters().announcementsReceived >= 40;
    }));
    EXPECT_EQ(peer2.counters().announcementsReceived, 40u);
    EXPECT_EQ(peer2.counters().withdrawalsReceived, 0u);
    EXPECT_GT(peer2.counters().updatesReceived, 0u);
}
