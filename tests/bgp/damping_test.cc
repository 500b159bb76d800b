/**
 * @file
 * Tests for route flap damping (RFC 2439), standalone and integrated
 * into the speaker.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "bgp/damping.hh"
#include "bgp/speaker.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

constexpr uint64_t sec = 1'000'000'000ull;

DampingConfig
testConfig()
{
    DampingConfig config;
    config.enabled = true;
    config.halfLifeSec = 900;
    return config;
}

const net::Prefix p = net::Prefix::fromString("10.1.0.0/16");

} // namespace

TEST(FlapDamper, DisabledDoesNothing)
{
    FlapDamper damper(DampingConfig{}); // enabled = false
    EXPECT_FALSE(damper.onWithdraw(1, p, 0));
    EXPECT_FALSE(damper.onAnnounce(1, p, 0));
    EXPECT_FALSE(damper.isSuppressed(1, p, 0));
    EXPECT_EQ(damper.trackedRoutes(), 0u);
}

TEST(FlapDamper, FreshAnnouncementCarriesNoPenalty)
{
    FlapDamper damper(testConfig());
    EXPECT_FALSE(damper.onAnnounce(1, p, 0));
    EXPECT_EQ(damper.penalty(1, p, 0), 0.0);
}

TEST(FlapDamper, SingleWithdrawDoesNotSuppress)
{
    FlapDamper damper(testConfig());
    EXPECT_FALSE(damper.onWithdraw(1, p, 0));
    EXPECT_NEAR(damper.penalty(1, p, 0), 1000.0, 1e-9);
    EXPECT_FALSE(damper.isSuppressed(1, p, 0));
}

TEST(FlapDamper, RepeatedFlapsSuppress)
{
    FlapDamper damper(testConfig());
    // withdraw (1000) + re-announce (500) + withdraw (1000) = 2500.
    EXPECT_FALSE(damper.onWithdraw(1, p, 0));
    EXPECT_FALSE(damper.onAnnounce(1, p, 1 * sec));
    EXPECT_TRUE(damper.onWithdraw(1, p, 2 * sec));
    EXPECT_TRUE(damper.isSuppressed(1, p, 2 * sec));
}

TEST(FlapDamper, PenaltyDecaysWithHalfLife)
{
    FlapDamper damper(testConfig());
    damper.onWithdraw(1, p, 0);
    EXPECT_NEAR(damper.penalty(1, p, 900 * sec), 500.0, 1.0);
    EXPECT_NEAR(damper.penalty(1, p, 1800 * sec), 250.0, 1.0);
}

TEST(FlapDamper, SuppressionLapsesAtReuseThreshold)
{
    FlapDamper damper(testConfig());
    damper.onWithdraw(1, p, 0);
    damper.onAnnounce(1, p, 0);
    damper.onWithdraw(1, p, 0); // penalty 2500, suppressed
    ASSERT_TRUE(damper.isSuppressed(1, p, 0));

    // 2500 -> 750 takes halfLife * log2(2500/750) ~ 1563 s.
    EXPECT_TRUE(damper.isSuppressed(1, p, 1500 * sec));
    EXPECT_FALSE(damper.isSuppressed(1, p, 1700 * sec));
}

TEST(FlapDamper, PenaltyCapped)
{
    FlapDamper damper(testConfig());
    for (int i = 0; i < 100; ++i)
        damper.onWithdraw(1, p, 0);
    EXPECT_LE(damper.penalty(1, p, 0), FlapDamper::maxPenalty);
}

TEST(FlapDamper, PeersTrackedIndependently)
{
    FlapDamper damper(testConfig());
    damper.onWithdraw(1, p, 0);
    damper.onAnnounce(1, p, 0);
    damper.onWithdraw(1, p, 0);
    EXPECT_TRUE(damper.isSuppressed(1, p, 0));
    EXPECT_FALSE(damper.isSuppressed(2, p, 0));
    EXPECT_EQ(damper.suppressedCount(0), 1u);
}

TEST(FlapDamper, TakeReusableReportsLapsedRoutes)
{
    FlapDamper damper(testConfig());
    damper.onWithdraw(1, p, 0);
    damper.onAnnounce(1, p, 0);
    damper.onWithdraw(1, p, 0);
    ASSERT_TRUE(damper.isSuppressed(1, p, 0));

    EXPECT_TRUE(damper.takeReusable(100 * sec).empty());

    auto reusable = damper.takeReusable(2000 * sec);
    ASSERT_EQ(reusable.size(), 1u);
    EXPECT_EQ(reusable[0].first, PeerId(1));
    EXPECT_EQ(reusable[0].second, p);
}

TEST(FlapDamper, GarbageCollectsDecayedHistories)
{
    FlapDamper damper(testConfig());
    damper.onWithdraw(1, p, 0);
    EXPECT_EQ(damper.trackedRoutes(), 1u);
    // After many half-lives the entry decays to noise and is dropped.
    damper.takeReusable(20000 * sec);
    EXPECT_EQ(damper.trackedRoutes(), 0u);
}

// ---------------------------------------------------------------------
// Decay/suppress/reuse boundaries under ns-granularity virtual time.
// ---------------------------------------------------------------------

TEST(FlapDamper, DecayIsExactAtWholeHalfLives)
{
    FlapDamper damper(testConfig());
    damper.onWithdraw(1, p, 0);
    // exp2(-1.0) is exactly 0.5 in IEEE arithmetic, so whole
    // half-lives halve the penalty with no drift.
    EXPECT_DOUBLE_EQ(damper.penalty(1, p, 900 * sec), 500.0);
    EXPECT_DOUBLE_EQ(damper.penalty(1, p, 1800 * sec), 250.0);
    EXPECT_DOUBLE_EQ(damper.penalty(1, p, 2700 * sec), 125.0);
}

TEST(FlapDamper, ReadsDoNotPerturbTheTrajectory)
{
    // The anchor-based decay never rebases on a read: a damper that
    // is queried at arbitrary intermediate instants must stay
    // bit-identical to one that is not. (The old implementation
    // rewrote penalty/lastUpdate on every read and accumulated
    // truncation at ns granularity, shifting suppress/reuse
    // boundaries with query frequency.)
    FlapDamper quiet(testConfig());
    FlapDamper polled(testConfig());

    auto flap = [&](FlapDamper &damper, uint64_t at) {
        damper.onWithdraw(1, p, at);
        damper.onAnnounce(1, p, at + sec / 2);
    };
    flap(quiet, 0);
    flap(polled, 0);
    // Hammer one damper with reads at awkward offsets.
    for (uint64_t t = 1; t < 900; t += 7) {
        polled.penalty(1, p, t * sec + 123456789);
        polled.isSuppressed(1, p, t * sec + 987654321);
    }
    flap(quiet, 900 * sec);
    flap(polled, 900 * sec);

    for (uint64_t t : {901ull, 1000ull, 1563ull, 2000ull, 3000ull}) {
        EXPECT_DOUBLE_EQ(quiet.penalty(1, p, t * sec),
                         polled.penalty(1, p, t * sec))
            << "at t=" << t;
        EXPECT_EQ(quiet.isSuppressed(1, p, t * sec),
                  polled.isSuppressed(1, p, t * sec))
            << "at t=" << t;
    }
    EXPECT_EQ(quiet.nextReuseTime(2000 * sec),
              polled.nextReuseTime(2000 * sec));
}

TEST(FlapDamper, ReuseBoundaryIsExact)
{
    FlapDamper damper(testConfig());
    damper.onWithdraw(1, p, 0);
    damper.onAnnounce(1, p, 0);
    damper.onWithdraw(1, p, 0); // penalty 2500 at anchor 0
    ASSERT_TRUE(damper.isSuppressed(1, p, 0));

    // 2500 decays to the reuse threshold 750 after
    // halfLife * log2(2500/750) ~ 1563.27 s; nextReuseTime rounds
    // the crossing up to whole ns, so at that instant the route is
    // reusable and one ns earlier it is not.
    uint64_t at = damper.nextReuseTime(0);
    ASSERT_NE(at, 0u);
    EXPECT_NEAR(double(at) / double(sec), 1563.27, 0.01);
    EXPECT_TRUE(damper.isSuppressed(1, p, at - 1));
    EXPECT_FALSE(damper.isSuppressed(1, p, at));

    auto reusable = damper.takeReusable(at);
    ASSERT_EQ(reusable.size(), 1u);
    EXPECT_EQ(reusable[0].second, p);
    // Cleared: no more suppressed routes, no more reuse deadline.
    EXPECT_EQ(damper.suppressedCount(at), 0u);
    EXPECT_EQ(damper.nextReuseTime(at), 0u);
}

TEST(FlapDamper, NextReuseTimeIsZeroWithoutSuppression)
{
    FlapDamper damper(testConfig());
    EXPECT_EQ(damper.nextReuseTime(0), 0u);
    damper.onWithdraw(1, p, 0); // penalty 1000: below suppress
    EXPECT_EQ(damper.nextReuseTime(0), 0u);
}

TEST(FlapDamper, TransitionCountersCountEpisodesNotEvents)
{
    FlapDamper damper(testConfig());
    EXPECT_EQ(damper.suppressTransitions(), 0u);
    EXPECT_EQ(damper.reuseTransitions(), 0u);

    damper.onWithdraw(1, p, 0);
    damper.onAnnounce(1, p, 0);
    damper.onWithdraw(1, p, 0); // crosses 2000: one suppression
    EXPECT_EQ(damper.suppressTransitions(), 1u);
    // More flaps inside the same episode do not re-count.
    damper.onAnnounce(1, p, sec);
    damper.onWithdraw(1, p, 2 * sec);
    EXPECT_EQ(damper.suppressTransitions(), 1u);

    uint64_t at = damper.nextReuseTime(2 * sec);
    ASSERT_NE(at, 0u);
    EXPECT_EQ(damper.takeReusable(at).size(), 1u);
    EXPECT_EQ(damper.reuseTransitions(), 1u);

    // A fresh flap burst afterwards is a second episode.
    damper.onWithdraw(1, p, at);
    damper.onAnnounce(1, p, at + sec);
    damper.onWithdraw(1, p, at + 2 * sec);
    EXPECT_EQ(damper.suppressTransitions(), 2u);
}

// ---------------------------------------------------------------------
// Speaker integration: a flapping route gets suppressed and recovers.
// ---------------------------------------------------------------------

namespace
{

/** Minimal harness: one speaker fed raw wire messages. */
class Harness : public SpeakerEvents
{
  public:
    explicit Harness(DampingConfig damping)
    {
        SpeakerConfig config;
        config.localAs = 65000;
        config.routerId = 1;
        config.localAddress = net::Ipv4Address(10, 0, 0, 1);
        // Hold timer disabled: damping-recovery tests jump thousands
        // of seconds ahead without traffic.
        config.holdTimeSec = 0;
        config.damping = damping;
        speaker = std::make_unique<BgpSpeaker>(config, this);

        PeerConfig peer;
        peer.id = 0;
        peer.asn = 65001;
        speaker->addPeer(peer);
        speaker->startPeer(0, 0);
        speaker->tcpEstablished(0, 0);

        OpenMessage open;
        open.myAs = 65001;
        open.holdTimeSec = 0;
        open.bgpIdentifier = 99;
        speaker->handleMessage(0, open, 0);
        speaker->handleMessage(0, KeepaliveMessage{}, 0);
    }

    void
    onTransmit(PeerId, MessageType, net::WireSegmentPtr,
               size_t) override
    {}

    void
    announce(const net::Prefix &prefix, uint64_t now)
    {
        PathAttributes attrs;
        attrs.asPath = AsPath::sequence({65001});
        attrs.nextHop = net::Ipv4Address(10, 0, 1, 2);
        UpdateMessage update;
        update.attributes = makeAttributes(std::move(attrs));
        update.nlri = {prefix};
        speaker->handleMessage(0, update, now);
    }

    void
    withdraw(const net::Prefix &prefix, uint64_t now)
    {
        UpdateMessage update;
        update.withdrawnRoutes = {prefix};
        speaker->handleMessage(0, update, now);
    }

    std::unique_ptr<BgpSpeaker> speaker;
};

} // namespace

TEST(SpeakerDamping, FlappingRouteGetsSuppressed)
{
    Harness h(testConfig());

    h.announce(p, 0);
    EXPECT_NE(h.speaker->locRib().find(p), nullptr);

    // Flap: withdraw + announce + withdraw crosses the threshold.
    h.withdraw(p, 1 * sec);
    h.announce(p, 2 * sec);
    h.withdraw(p, 3 * sec);
    h.announce(p, 4 * sec);

    // The route is announced and stored, but suppressed: not in the
    // Loc-RIB.
    EXPECT_NE(h.speaker->adjRibIn(0).find(p), nullptr);
    EXPECT_EQ(h.speaker->locRib().find(p), nullptr);
    EXPECT_GT(h.speaker->counters().announcementsSuppressed, 0u);
}

TEST(SpeakerDamping, SuppressedRouteRecoversViaTimers)
{
    Harness h(testConfig());
    h.announce(p, 0);
    h.withdraw(p, 1 * sec);
    h.announce(p, 2 * sec);
    h.withdraw(p, 3 * sec);
    h.announce(p, 4 * sec);
    ASSERT_EQ(h.speaker->locRib().find(p), nullptr);

    // Long quiet period: the penalty decays; the timer poll reuses
    // the route.
    h.speaker->pollTimers(4000 * sec);
    EXPECT_NE(h.speaker->locRib().find(p), nullptr);
}

TEST(SpeakerDamping, DisabledByDefault)
{
    Harness h(DampingConfig{});
    h.announce(p, 0);
    for (int i = 0; i < 10; ++i) {
        h.withdraw(p, uint64_t(2 * i + 1) * sec);
        h.announce(p, uint64_t(2 * i + 2) * sec);
    }
    // Never suppressed without damping.
    EXPECT_NE(h.speaker->locRib().find(p), nullptr);
    EXPECT_EQ(h.speaker->counters().announcementsSuppressed, 0u);
}

TEST(SpeakerDamping, StableRoutesUnaffected)
{
    Harness h(testConfig());
    const auto q = net::Prefix::fromString("10.2.0.0/16");
    h.announce(p, 0);
    h.announce(q, 0);
    // p flaps; q stays stable.
    h.withdraw(p, 1 * sec);
    h.announce(p, 2 * sec);
    h.withdraw(p, 3 * sec);
    h.announce(p, 4 * sec);

    EXPECT_EQ(h.speaker->locRib().find(p), nullptr);
    EXPECT_NE(h.speaker->locRib().find(q), nullptr);
}
