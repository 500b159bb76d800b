/**
 * @file
 * Integration tests for the simulated router: protocol processing
 * paced by virtual CPU, pipeline, flow control, and the data plane.
 */

#include <gtest/gtest.h>

#include "core/test_peer.hh"
#include "net/logging.hh"
#include "net/wire_segment.hh"
#include "router/router_system.hh"
#include "router/system_profiles.hh"
#include "workload/update_stream.hh"

using namespace bgpbench;
using namespace bgpbench::router;

namespace
{

RouterConfig
twoPeersConfig()
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
    return rc;
}

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

/** Run the sim in 1 ms hops until cond or deadline. */
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

struct World
{
    sim::Simulator sim;
    RouterSystem router;
    core::TestPeer peer1;
    core::TestPeer peer2;

    explicit World(SystemProfile profile)
        : router(&sim, std::move(profile), twoPeersConfig()),
          peer1(&sim, core::TestPeerConfig{65001, 0x0a000102,
                                           net::Ipv4Address(10, 0, 1,
                                                            2)},
                &router, 0),
          peer2(&sim, core::TestPeerConfig{65002, 0x0a000202,
                                           net::Ipv4Address(10, 0, 2,
                                                            2)},
                &router, 1)
    {
        router.start();
    }

    bool
    establish1()
    {
        peer1.connect();
        return runUntil(sim, [&]() {
            return peer1.established() && router.controlDrained();
        });
    }
};

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
    World w(pentium3Profile());
    ASSERT_TRUE(w.establish1());
    EXPECT_EQ(w.router.speaker().sessionState(0),
              bgp::SessionState::Established);
    // Processing the OPEN and KEEPALIVE consumed virtual time.
    EXPECT_GT(w.sim.now(), 0u);
}

TEST(RouterSystem, UpdatesReachFibAfterDrain)
{
    World w(pentium3Profile());
    ASSERT_TRUE(w.establish1());

    auto rs = routes(100);
    auto packets = buildAnnouncementStream(rs, streamConfig(10));
    w.peer1.enqueueStream(std::move(packets));

    ASSERT_TRUE(runUntil(w.sim, [&]() {
        return w.peer1.sendComplete() && w.router.controlDrained();
    }));

    EXPECT_EQ(w.router.speaker().counters().announcementsProcessed,
              100u);
    EXPECT_EQ(w.router.speaker().locRib().size(), 100u);
    EXPECT_EQ(w.router.fib().size(), 100u);
    EXPECT_EQ(w.router.controlPlane().fibChangesApplied, 100u);

    // Every prefix is reachable through the FIB.
    for (const auto &r : rs) {
        EXPECT_NE(w.router.fib().exact(r.prefix), nullptr)
            << r.prefix.toString();
    }
}

TEST(RouterSystem, ProcessingTakesVirtualTimeProportionalToWork)
{
    World w(pentium3Profile());
    ASSERT_TRUE(w.establish1());

    double t0 = sim::toSeconds(w.sim.now());
    auto rs = routes(200);
    w.peer1.enqueueStream(
        buildAnnouncementStream(rs, streamConfig(1)));
    ASSERT_TRUE(runUntil(w.sim, [&]() {
        return w.router.controlDrained() &&
               w.router.speaker().counters().announcementsProcessed >=
                   200;
    }));
    double elapsed = sim::toSeconds(w.sim.now()) - t0;

    // The Pentium III handles small-packet start-up announcements at
    // roughly 185 tps (Table III): 200 prefixes ~ 1 second. Allow a
    // generous band; the point is that virtual time is charged.
    EXPECT_GT(elapsed, 0.5);
    EXPECT_LT(elapsed, 3.0);
}

TEST(RouterSystem, WithdrawalsEmptyTheFib)
{
    World w(pentium3Profile());
    ASSERT_TRUE(w.establish1());

    auto rs = routes(50);
    w.peer1.enqueueStream(
        buildAnnouncementStream(rs, streamConfig(10)));
    ASSERT_TRUE(runUntil(w.sim, [&]() {
        return w.router.controlDrained() &&
               w.router.fib().size() == 50;
    }));

    w.peer1.enqueueStream(
        buildWithdrawalStream(rs, streamConfig(10)));
    ASSERT_TRUE(runUntil(w.sim, [&]() {
        return w.router.controlDrained() &&
               w.router.speaker().counters().withdrawalsProcessed >=
                   50;
    }));
    EXPECT_EQ(w.router.fib().size(), 0u);
    EXPECT_EQ(w.router.speaker().locRib().size(), 0u);
}

TEST(RouterSystem, SecondPeerReceivesFullTable)
{
    World w(pentium3Profile());
    ASSERT_TRUE(w.establish1());

    auto rs = routes(60);
    w.peer1.enqueueStream(
        buildAnnouncementStream(rs, streamConfig(10)));
    ASSERT_TRUE(runUntil(w.sim, [&]() {
        return w.router.controlDrained() &&
               w.router.fib().size() == 60;
    }));

    w.peer2.connect();
    ASSERT_TRUE(runUntil(w.sim, [&]() {
        return w.peer2.established() &&
               w.peer2.counters().announcementsReceived >= 60 &&
               w.router.controlDrained();
    }));
    EXPECT_EQ(w.peer2.counters().announcementsReceived, 60u);
    // Outbound updates were packed, not one per prefix.
    EXPECT_LT(w.peer2.counters().updatesReceived, 60u);
}

TEST(RouterSystem, FlowControlBoundsReceiveBuffer)
{
    SystemProfile profile = pentium3Profile();
    profile.rxBufferBytes = 4096;
    World w(profile);
    ASSERT_TRUE(w.establish1());

    // Enqueue far more than the buffer in one go.
    auto rs = routes(400);
    w.peer1.enqueueStream(
        buildAnnouncementStream(rs, streamConfig(1)));
    // Immediately after enqueue, most packets are still held by the
    // test peer, not the router.
    EXPECT_GT(w.peer1.pendingPackets(), 300u);
    EXPECT_LE(w.router.rxSpace(0), 4096u);

    ASSERT_TRUE(runUntil(w.sim, [&]() {
        return w.peer1.sendComplete() && w.router.controlDrained();
    }));
    EXPECT_EQ(w.router.speaker().counters().announcementsProcessed,
              400u);
    EXPECT_EQ(w.router.rxSpace(0), 4096u);
}

TEST(RouterSystem, SessionSurvivesQuietPeriodViaKeepalives)
{
    World w(pentium3Profile());
    ASSERT_TRUE(w.establish1());

    // 400 simulated seconds of silence: longer than the 180 s hold
    // time; the peer's periodic keepalives must keep the session up.
    w.sim.runUntil(w.sim.now() + sim::nsFromSec(400.0));
    EXPECT_EQ(w.router.speaker().sessionState(0),
              bgp::SessionState::Established);
    EXPECT_GT(w.peer1.counters().keepalivesReceived, 2u);
}

TEST(RouterSystem, MonolithicGatePacesSmallMessages)
{
    World w(ciscoProfile());
    ASSERT_TRUE(w.establish1());

    double t0 = sim::toSeconds(w.sim.now());
    auto rs = routes(10);
    w.peer1.enqueueStream(
        buildAnnouncementStream(rs, streamConfig(1)));
    ASSERT_TRUE(runUntil(w.sim, [&]() {
        return w.router.controlDrained() &&
               w.router.speaker().counters().announcementsProcessed >=
                   10;
    }));
    double elapsed = sim::toSeconds(w.sim.now()) - t0;
    // ~92.5 ms per message: 10 messages ~ 0.9 s.
    EXPECT_GT(elapsed, 0.7);
    EXPECT_LT(elapsed, 1.5);
}

TEST(RouterSystem, StaticRouteForwardsCrossTraffic)
{
    World w(pentium3Profile());
    w.router.installStaticRoute(
        net::Prefix::fromString("198.18.0.0/15"),
        net::Ipv4Address(10, 0, 2, 2), 2);

    workload::CrossTrafficConfig ct;
    ct.mbps = 100.0;
    ct.packetBytes = 1000;
    w.router.setCrossTraffic(ct);

    w.sim.runUntil(sim::nsFromSec(2.0));
    const auto &dp = w.router.dataPlane();
    // 100 Mbps at 1000 B = 12.5 kpps; two seconds ~ 25000 packets.
    EXPECT_NEAR(double(dp.offeredPackets), 25000.0, 500.0);
    EXPECT_NEAR(double(dp.forwardedPackets),
                double(dp.offeredPackets), 500.0);
    EXPECT_EQ(dp.busDrops, 0u);
}

TEST(RouterSystem, BusLimitDropsExcessTraffic)
{
    World w(pentium3Profile()); // 315 Mbps PCI limit
    w.router.installStaticRoute(
        net::Prefix::fromString("198.18.0.0/15"),
        net::Ipv4Address(10, 0, 2, 2), 2);

    workload::CrossTrafficConfig ct;
    ct.mbps = 630.0; // twice the bus limit
    ct.packetBytes = 1000;
    w.router.setCrossTraffic(ct);

    w.sim.runUntil(sim::nsFromSec(2.0));
    const auto &dp = w.router.dataPlane();
    EXPECT_GT(dp.busDrops, 0u);
    // Roughly half the offered load is dropped at the bus.
    EXPECT_NEAR(double(dp.busDrops) / double(dp.offeredPackets), 0.5,
                0.05);
}

TEST(RouterSystem, UnroutableCrossTrafficIsDropped)
{
    World w(pentium3Profile());
    // No static route installed.
    workload::CrossTrafficConfig ct;
    ct.mbps = 50.0;
    ct.packetBytes = 1000;
    w.router.setCrossTraffic(ct);

    w.sim.runUntil(sim::nsFromSec(1.0));
    EXPECT_EQ(w.router.dataPlane().forwardedPackets, 0u);
    EXPECT_GT(w.router.dataPlane().queueDrops, 0u);
}

TEST(RouterSystem, SeparateDataPlaneChargesNoControlCpu)
{
    World w(ixp2400Profile());
    w.router.installStaticRoute(
        net::Prefix::fromString("198.18.0.0/15"),
        net::Ipv4Address(10, 0, 2, 2), 2);

    workload::CrossTrafficConfig ct;
    ct.mbps = 900.0;
    ct.packetBytes = 1000;
    w.router.setCrossTraffic(ct);

    w.sim.runUntil(sim::nsFromSec(2.0));
    const auto &dp = w.router.dataPlane();
    EXPECT_GT(dp.forwardedPackets, 200'000u);
    // The control CPU never saw a cycle of it: utilisation ~ idle
    // (only rtrmgr/policy background).
    EXPECT_LT(w.router.loadTracker().series(5).peak() +
                  w.router.loadTracker().series(6).peak(),
              1.0);
}

TEST(RouterSystem, CrossTrafficLoadsKernelOnSharedSystems)
{
    World w(pentium3Profile());
    w.router.installStaticRoute(
        net::Prefix::fromString("198.18.0.0/15"),
        net::Ipv4Address(10, 0, 2, 2), 2);

    workload::CrossTrafficConfig ct;
    ct.mbps = 300.0;
    ct.packetBytes = 1000;
    w.router.setCrossTraffic(ct);

    w.sim.runUntil(sim::nsFromSec(3.0));

    // Interrupt + system load is substantial (paper: 20-30% at
    // 300 Mbps for interrupts alone).
    double irq_peak = 0.0;
    double sys_peak = 0.0;
    auto all = w.router.loadTracker().allSeries();
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
    World w(pentium3Profile());
    w.router.installStaticRoute(
        net::Prefix::fromString("198.18.0.0/15"),
        net::Ipv4Address(10, 0, 2, 2), 2);
    workload::CrossTrafficConfig ct;
    ct.mbps = 80.0;
    ct.packetBytes = 1000;
    w.router.setCrossTraffic(ct);

    w.sim.runUntil(sim::nsFromSec(3.0));
    const auto &series = w.router.forwardingBytesSeries();
    ASSERT_GE(series.bucketCount(), 2u);
    // 80 Mbps = 10 MB/s per bucket.
    EXPECT_NEAR(series.bucket(1), 10e6, 1e6);
}

TEST(RouterSystem, ShutdownStopsEventFlood)
{
    World w(pentium3Profile());
    w.sim.runUntil(sim::nsFromSec(0.5));
    w.router.shutdown();
    // All periodic events unwind; the queue eventually empties.
    w.sim.runUntilIdle();
    EXPECT_EQ(w.sim.pendingEvents(), 0u);
}

TEST(RouterSystem, BadPortIndexPanics)
{
    World w(pentium3Profile());
    EXPECT_THROW(w.router.rxSpace(7), PanicError);
    EXPECT_THROW(w.router.connectPeer(7), PanicError);
    EXPECT_THROW(w.router.deliverToPort(
                     7, net::BufferPool::global().wrap({})),
                 PanicError);
}

TEST(RouterSystem, JunkStreamAnsweredWithHeaderError)
{
    World w(xeonProfile());
    ASSERT_TRUE(w.establish1());

    // Watch what the router sends on port 0 from here on.
    std::vector<bgp::ErrorCode> codes;
    w.router.setPortTransmitHandler(0, [&](net::WireSegmentPtr wire) {
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
        w.router.deliverToPort(0, net::BufferPool::global().wrap(
                                      std::vector<uint8_t>(64, 0xab)));
    ASSERT_TRUE(
        runUntil(w.sim, [&]() { return w.router.controlDrained(); }));
    w.sim.runUntil(w.sim.now() + sim::nsFromMs(100));

    EXPECT_EQ(w.router.speaker().sessionState(0),
              bgp::SessionState::Idle);
    ASSERT_EQ(codes.size(), 1u);
    EXPECT_EQ(codes[0], bgp::ErrorCode::MessageHeaderError);
}
