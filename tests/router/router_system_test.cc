/**
 * @file
 * Integration tests for the simulated router: protocol processing
 * paced by virtual CPU, pipeline, flow control, and the data plane.
 */

#include <gtest/gtest.h>

#include "core/benchmark_runner.hh"
#include "net/logging.hh"
#include "net/wire_segment.hh"
#include "router/router_system.hh"
#include "router/system_profiles.hh"
#include "workload/update_stream.hh"

using namespace bgpbench;
using namespace bgpbench::router;

namespace
{

std::vector<workload::RouteSpec>
routes(size_t count)
{
    workload::RouteSetConfig config;
    config.count = count;
    config.seed = 9;
    return generateRouteSet(config);
}

workload::StreamConfig
streamConfig(size_t per_packet = 1)
{
    workload::StreamConfig c;
    c.speakerAs = 65001;
    c.nextHop = net::Ipv4Address(10, 0, 1, 2);
    c.prefixesPerPacket = per_packet;
    return c;
}

/** The benchmark testbed's settings with a 600 s cap. */
core::BenchmarkConfig
capped()
{
    core::BenchmarkConfig config;
    config.simTimeLimit = sim::nsFromSec(600.0);
    return config;
}

} // namespace

TEST(RouterSystem, RequiresPeers)
{
    sim::Simulator sim;
    RouterConfig rc;
    rc.peers.clear();
    EXPECT_THROW(RouterSystem(&sim, pentium3Profile(), rc),
                 FatalError);
}

TEST(RouterSystem, HandshakeEstablishesSession)
{
    core::Testbed tb(pentium3Profile(), capped());
    ASSERT_TRUE(tb.establish(tb.speaker1()));
    EXPECT_EQ(tb.router().speaker().sessionState(0),
              bgp::SessionState::Established);
    // Processing the OPEN and KEEPALIVE consumed virtual time.
    EXPECT_GT(tb.simulator().now(), 0u);
}

TEST(RouterSystem, UpdatesReachFibAfterDrain)
{
    core::Testbed tb(pentium3Profile(), capped());
    ASSERT_TRUE(tb.establish(tb.speaker1()));

    auto rs = routes(100);
    auto packets = buildAnnouncementStream(rs, streamConfig(10));
    tb.speaker1().enqueueStream(std::move(packets));

    ASSERT_TRUE(tb.runUntil([&]() {
        return tb.speaker1().sendComplete() && tb.router().controlDrained();
    }));

    EXPECT_EQ(tb.router().speaker().counters().announcementsProcessed,
              100u);
    EXPECT_EQ(tb.router().speaker().locRib().size(), 100u);
    EXPECT_EQ(tb.router().fib().size(), 100u);
    EXPECT_EQ(tb.router().controlPlane().fibChangesApplied, 100u);

    // Every prefix is reachable through the FIB.
    for (const auto &r : rs) {
        EXPECT_NE(tb.router().fib().exact(r.prefix), nullptr)
            << r.prefix.toString();
    }
}

TEST(RouterSystem, ProcessingTakesVirtualTimeProportionalToWork)
{
    core::Testbed tb(pentium3Profile(), capped());
    ASSERT_TRUE(tb.establish(tb.speaker1()));

    double t0 = sim::toSeconds(tb.simulator().now());
    auto rs = routes(200);
    tb.speaker1().enqueueStream(
        buildAnnouncementStream(rs, streamConfig(1)));
    ASSERT_TRUE(tb.runUntil([&]() {
        return tb.router().controlDrained() &&
               tb.router().speaker().counters().announcementsProcessed >=
                   200;
    }));
    double elapsed = sim::toSeconds(tb.simulator().now()) - t0;

    // The Pentium III handles small-packet start-up announcements at
    // roughly 185 tps (Table III): 200 prefixes ~ 1 second. Allow a
    // generous band; the point is that virtual time is charged.
    EXPECT_GT(elapsed, 0.5);
    EXPECT_LT(elapsed, 3.0);
}

TEST(RouterSystem, WithdrawalsEmptyTheFib)
{
    core::Testbed tb(pentium3Profile(), capped());
    ASSERT_TRUE(tb.establish(tb.speaker1()));

    auto rs = routes(50);
    tb.speaker1().enqueueStream(
        buildAnnouncementStream(rs, streamConfig(10)));
    ASSERT_TRUE(tb.runUntil([&]() {
        return tb.router().controlDrained() &&
               tb.router().fib().size() == 50;
    }));

    tb.speaker1().enqueueStream(
        buildWithdrawalStream(rs, streamConfig(10)));
    ASSERT_TRUE(tb.runUntil([&]() {
        return tb.router().controlDrained() &&
               tb.router().speaker().counters().withdrawalsProcessed >=
                   50;
    }));
    EXPECT_EQ(tb.router().fib().size(), 0u);
    EXPECT_EQ(tb.router().speaker().locRib().size(), 0u);
}

TEST(RouterSystem, SecondPeerReceivesFullTable)
{
    core::Testbed tb(pentium3Profile(), capped());
    ASSERT_TRUE(tb.establish(tb.speaker1()));

    auto rs = routes(60);
    tb.speaker1().enqueueStream(
        buildAnnouncementStream(rs, streamConfig(10)));
    ASSERT_TRUE(tb.runUntil([&]() {
        return tb.router().controlDrained() &&
               tb.router().fib().size() == 60;
    }));

    tb.speaker2().connect();
    ASSERT_TRUE(tb.runUntil([&]() {
        return tb.speaker2().established() &&
               tb.speaker2().counters().announcementsReceived >= 60 &&
               tb.router().controlDrained();
    }));
    EXPECT_EQ(tb.speaker2().counters().announcementsReceived, 60u);
    // Outbound updates were packed, not one per prefix.
    EXPECT_LT(tb.speaker2().counters().updatesReceived, 60u);
}

TEST(RouterSystem, FlowControlBoundsReceiveBuffer)
{
    SystemProfile profile = pentium3Profile();
    profile.rxBufferBytes = 4096;
    core::Testbed tb(profile, capped());
    ASSERT_TRUE(tb.establish(tb.speaker1()));

    // Enqueue far more than the buffer in one go.
    auto rs = routes(400);
    tb.speaker1().enqueueStream(
        buildAnnouncementStream(rs, streamConfig(1)));
    // Immediately after enqueue, most packets are still held by the
    // test peer, not the router.
    EXPECT_GT(tb.speaker1().pendingPackets(), 300u);
    EXPECT_LE(tb.router().rxSpace(0), 4096u);

    ASSERT_TRUE(tb.runUntil([&]() {
        return tb.speaker1().sendComplete() && tb.router().controlDrained();
    }));
    EXPECT_EQ(tb.router().speaker().counters().announcementsProcessed,
              400u);
    EXPECT_EQ(tb.router().rxSpace(0), 4096u);
}

TEST(RouterSystem, SessionSurvivesQuietPeriodViaKeepalives)
{
    core::Testbed tb(pentium3Profile(), capped());
    ASSERT_TRUE(tb.establish(tb.speaker1()));

    // 400 simulated seconds of silence: longer than the 180 s hold
    // time; the peer's periodic keepalives must keep the session up.
    tb.simulator().runUntil(tb.simulator().now() + sim::nsFromSec(400.0));
    EXPECT_EQ(tb.router().speaker().sessionState(0),
              bgp::SessionState::Established);
    EXPECT_GT(tb.speaker1().counters().keepalivesReceived, 2u);
}

TEST(RouterSystem, MonolithicGatePacesSmallMessages)
{
    core::Testbed tb(ciscoProfile(), capped());
    ASSERT_TRUE(tb.establish(tb.speaker1()));

    double t0 = sim::toSeconds(tb.simulator().now());
    auto rs = routes(10);
    tb.speaker1().enqueueStream(
        buildAnnouncementStream(rs, streamConfig(1)));
    ASSERT_TRUE(tb.runUntil([&]() {
        return tb.router().controlDrained() &&
               tb.router().speaker().counters().announcementsProcessed >=
                   10;
    }));
    double elapsed = sim::toSeconds(tb.simulator().now()) - t0;
    // ~92.5 ms per message: 10 messages ~ 0.9 s.
    EXPECT_GT(elapsed, 0.7);
    EXPECT_LT(elapsed, 1.5);
}

TEST(RouterSystem, StaticRouteForwardsCrossTraffic)
{
    core::Testbed tb(pentium3Profile(), capped());
    tb.router().installStaticRoute(
        net::Prefix::fromString("198.18.0.0/15"),
        net::Ipv4Address(10, 0, 2, 2), 2);

    workload::CrossTrafficConfig ct;
    ct.mbps = 100.0;
    ct.packetBytes = 1000;
    tb.router().setCrossTraffic(ct);

    tb.simulator().runUntil(sim::nsFromSec(2.0));
    const auto &dp = tb.router().dataPlane();
    // 100 Mbps at 1000 B = 12.5 kpps; two seconds ~ 25000 packets.
    EXPECT_NEAR(double(dp.offeredPackets), 25000.0, 500.0);
    EXPECT_NEAR(double(dp.forwardedPackets),
                double(dp.offeredPackets), 500.0);
    EXPECT_EQ(dp.busDrops, 0u);
}

TEST(RouterSystem, BusLimitDropsExcessTraffic)
{
    core::Testbed tb(pentium3Profile(), capped()); // 315 Mbps PCI limit
    tb.router().installStaticRoute(
        net::Prefix::fromString("198.18.0.0/15"),
        net::Ipv4Address(10, 0, 2, 2), 2);

    workload::CrossTrafficConfig ct;
    ct.mbps = 630.0; // twice the bus limit
    ct.packetBytes = 1000;
    tb.router().setCrossTraffic(ct);

    tb.simulator().runUntil(sim::nsFromSec(2.0));
    const auto &dp = tb.router().dataPlane();
    EXPECT_GT(dp.busDrops, 0u);
    // Roughly half the offered load is dropped at the bus.
    EXPECT_NEAR(double(dp.busDrops) / double(dp.offeredPackets), 0.5,
                0.05);
}

TEST(RouterSystem, UnroutableCrossTrafficIsDropped)
{
    core::Testbed tb(pentium3Profile(), capped());
    // No static route installed.
    workload::CrossTrafficConfig ct;
    ct.mbps = 50.0;
    ct.packetBytes = 1000;
    tb.router().setCrossTraffic(ct);

    tb.simulator().runUntil(sim::nsFromSec(1.0));
    EXPECT_EQ(tb.router().dataPlane().forwardedPackets, 0u);
    EXPECT_GT(tb.router().dataPlane().queueDrops, 0u);
}

TEST(RouterSystem, SeparateDataPlaneChargesNoControlCpu)
{
    core::Testbed tb(ixp2400Profile(), capped());
    tb.router().installStaticRoute(
        net::Prefix::fromString("198.18.0.0/15"),
        net::Ipv4Address(10, 0, 2, 2), 2);

    workload::CrossTrafficConfig ct;
    ct.mbps = 900.0;
    ct.packetBytes = 1000;
    tb.router().setCrossTraffic(ct);

    tb.simulator().runUntil(sim::nsFromSec(2.0));
    const auto &dp = tb.router().dataPlane();
    EXPECT_GT(dp.forwardedPackets, 200'000u);
    // The control CPU never saw a cycle of it: utilisation ~ idle
    // (only rtrmgr/policy background).
    EXPECT_LT(tb.router().loadTracker().series(5).peak() +
                  tb.router().loadTracker().series(6).peak(),
              1.0);
}

TEST(RouterSystem, CrossTrafficLoadsKernelOnSharedSystems)
{
    core::Testbed tb(pentium3Profile(), capped());
    tb.router().installStaticRoute(
        net::Prefix::fromString("198.18.0.0/15"),
        net::Ipv4Address(10, 0, 2, 2), 2);

    workload::CrossTrafficConfig ct;
    ct.mbps = 300.0;
    ct.packetBytes = 1000;
    tb.router().setCrossTraffic(ct);

    tb.simulator().runUntil(sim::nsFromSec(3.0));

    // Interrupt + system load is substantial (paper: 20-30% at
    // 300 Mbps for interrupts alone).
    double irq_peak = 0.0;
    double sys_peak = 0.0;
    auto all = tb.router().loadTracker().allSeries();
    for (const auto *s : all) {
        if (s->name() == "interrupts")
            irq_peak = s->peak();
        if (s->name() == "system")
            sys_peak = s->peak();
    }
    EXPECT_GT(irq_peak, 15.0);
    EXPECT_GT(sys_peak, 10.0);
}

TEST(RouterSystem, ForwardingRateSeriesRecordsBytes)
{
    core::Testbed tb(pentium3Profile(), capped());
    tb.router().installStaticRoute(
        net::Prefix::fromString("198.18.0.0/15"),
        net::Ipv4Address(10, 0, 2, 2), 2);
    workload::CrossTrafficConfig ct;
    ct.mbps = 80.0;
    ct.packetBytes = 1000;
    tb.router().setCrossTraffic(ct);

    tb.simulator().runUntil(sim::nsFromSec(3.0));
    const auto &series = tb.router().forwardingBytesSeries();
    ASSERT_GE(series.bucketCount(), 2u);
    // 80 Mbps = 10 MB/s per bucket.
    EXPECT_NEAR(series.bucket(1), 10e6, 1e6);
}

TEST(RouterSystem, ShutdownStopsEventFlood)
{
    core::Testbed tb(pentium3Profile(), capped());
    tb.simulator().runUntil(sim::nsFromSec(0.5));
    tb.router().shutdown();
    // All periodic events unwind; the queue eventually empties.
    tb.simulator().runUntilIdle();
    EXPECT_EQ(tb.simulator().pendingEvents(), 0u);
}

TEST(RouterSystem, BadPortIndexPanics)
{
    core::Testbed tb(pentium3Profile(), capped());
    EXPECT_THROW(tb.router().rxSpace(7), PanicError);
    EXPECT_THROW(tb.router().connectPeer(7), PanicError);
    EXPECT_THROW(tb.router().deliverToPort(
                     7, net::BufferPool::global().wrap({})),
                 PanicError);
}

TEST(RouterSystem, JunkStreamAnsweredWithHeaderError)
{
    core::Testbed tb(xeonProfile(), capped());
    ASSERT_TRUE(tb.establish(tb.speaker1()));

    // Watch what the router sends on port 0 from here on.
    std::vector<bgp::ErrorCode> codes;
    tb.router().setPortTransmitHandler(0, [&](net::WireSegmentPtr wire) {
        bgp::DecodeError error;
        auto msg =
            bgp::decodeMessage({wire->data(), wire->size()}, error);
        ASSERT_TRUE(msg.has_value()) << error.detail;
        if (bgp::messageType(*msg) == bgp::MessageType::Notification) {
            codes.push_back(
                std::get<bgp::NotificationMessage>(*msg).errorCode);
        }
    });

    // Junk whose framed length (0xabab) fails the header check: the
    // router answers with Message Header Error, not Cease, once.
    for (int chunk = 0; chunk < 3; ++chunk)
        tb.router().deliverToPort(0, net::BufferPool::global().wrap(
                                      std::vector<uint8_t>(64, 0xab)));
    ASSERT_TRUE(
        tb.runUntil([&]() { return tb.router().controlDrained(); }));
    tb.simulator().runUntil(tb.simulator().now() + sim::nsFromMs(100));

    EXPECT_EQ(tb.router().speaker().sessionState(0),
              bgp::SessionState::Idle);
    ASSERT_EQ(codes.size(), 1u);
    EXPECT_EQ(codes[0], bgp::ErrorCode::MessageHeaderError);
}
