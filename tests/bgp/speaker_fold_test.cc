/**
 * @file
 * A speaker counts each event once, in SpeakerCounters (and its
 * damper), and folds those counts into a bound metric registry before
 * every public call returns. A speaker with eBGP feeds behind import
 * route-maps, an eBGP peer behind an export route-map that denies
 * part of the table, damping, MRAI and maximum-paths 2 runs a seeded
 * random sequence of announcements, withdrawals, attribute changes,
 * session resets, route refreshes, timer polls and wakeups. After
 * every public call each registry counter must equal the count the
 * speaker keeps for it, counted from when the registry was bound to
 * when it was unbound, and the decision-candidates histogram must
 * hold one sample per decision run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bgp/message.hh"
#include "bgp/policy.hh"
#include "bgp/speaker.hh"
#include "obs/metrics.hh"
#include "workload/rng.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

constexpr AsNumber localAs = 65000;
constexpr uint64_t msNs = 1'000'000;
constexpr uint64_t secNs = 1'000'000'000;

/** Peers 0 and 1 are feeds behind an import route-map, 2 is a plain
 *  feed, and 3 sits behind an export route-map. */
const std::map<PeerId, AsNumber> peerAs = {
    {0, 64601}, {1, 64602}, {2, 64603}, {3, 64700}};

using Counts = std::map<std::string, uint64_t>;

/** Every metric a bound registry carries, with the speaker's count. */
Counts
speakerCounts(BgpSpeaker &speaker)
{
    const SpeakerCounters &c = speaker.counters();
    return {
        {"bgp.updates_received", c.updatesReceived},
        {"bgp.updates_sent", c.updatesSent},
        {"bgp.prefixes_advertised", c.prefixesAdvertised},
        {"bgp.decision_runs", c.decisionRuns},
        {"rib.loc_rib_changes", c.locRibChanges},
        {"rib.fib_changes", c.fibChanges},
        {"bgp.session_transitions", c.sessionTransitions},
        {"bgp.policy_evals", c.policyEvals},
        {"bgp.policy_rejects", c.policyRejects},
        {"bgp.ecmp_groups", c.ecmpGroups},
        {"bgp.mrai_deferrals", c.mraiDeferrals},
        {"bgp.damping_suppressed",
         speaker.damper().suppressTransitions()},
        {"bgp.damping_reused", speaker.damper().reuseTransitions()},
        // The histogram holds one sample per decision run.
        {"bgp.decision_candidates", c.decisionRuns},
    };
}

/** Every counter of @p registry, and each histogram's sample count. */
Counts
registryCounts(const obs::MetricRegistry &registry)
{
    Counts counts;
    obs::MetricRegistry::Snapshot snap = registry.snapshot();
    for (const auto &[name, value] : snap.counters)
        counts[name] = value;
    for (const auto &row : snap.histograms)
        counts[row.name] = row.count;
    return counts;
}

/** Records the wakeups the speaker asks for. */
class Sink : public SpeakerEvents
{
  public:
    void
    onTransmit(PeerId, MessageType, net::WireSegmentPtr, size_t) override
    {}

    void
    onWakeupRequested(SessionFsm::TimeNs at) override
    {
        wakeupAt = wakeupAt == 0 ? at : std::min(wakeupAt, at);
    }

    SessionFsm::TimeNs wakeupAt = 0;
};

class SpeakerFold : public ::testing::TestWithParam<uint64_t>
{
  protected:
    void
    SetUp() override
    {
        SpeakerConfig config;
        config.localAs = localAs;
        config.routerId = 1;
        config.localAddress = net::Ipv4Address(10, 255, 0, 1);
        config.holdTimeSec = 0;
        config.maxPaths = 2;
        config.damping.enabled = true;
        config.damping.halfLifeSec = 10.0;
        config.mraiNs = 30 * msNs;
        speaker = std::make_unique<BgpSpeaker>(config, &sink);
    }

    /** One registry's window: the speaker's counts when it was bound,
     *  and when it was unbound (empty while it is bound). */
    struct Binding
    {
        std::unique_ptr<obs::MetricRegistry> registry;
        Counts from;
        Counts to;
    };

    /** Bind a fresh registry, or detach when @p attach is false. */
    void
    rebind(bool attach)
    {
        Counts at = speakerCounts(*speaker);
        if (!bindings.empty() && bindings.back().to.empty())
            bindings.back().to = at;
        auto registry =
            attach ? std::make_unique<obs::MetricRegistry>() : nullptr;
        speaker->bindObservability(registry.get(), nullptr, 0);
        if (attach)
            bindings.push_back(Binding{std::move(registry), at, {}});
        verify("bind");
    }

    /** Each registry holds exactly what was counted while it was
     *  bound. */
    void
    verify(const char *call)
    {
        Counts now = speakerCounts(*speaker);
        for (size_t i = 0; i < bindings.size(); ++i) {
            const Binding &binding = bindings[i];
            const Counts &to = binding.to.empty() ? now : binding.to;
            Counts expected;
            for (const auto &[name, count] : to)
                expected[name] = count - binding.from.at(name);
            ASSERT_EQ(registryCounts(*binding.registry), expected)
                << "step " << step << " (" << call << "), registry "
                << i;
        }
    }

    void
    addPeers()
    {
        for (const auto &[id, asn] : peerAs) {
            PeerConfig peer;
            peer.id = id;
            peer.asn = asn;
            peer.address = net::Ipv4Address(10, 0, uint8_t(id), 2);
            if (id < 2) {
                peer.importPolicy = makeRejectPrefixPolicy(
                    net::Prefix::fromString("10.3.0.0/16"));
            }
            if (id == 3) {
                peer.exportPolicy = makeRejectPrefixPolicy(
                    net::Prefix::fromString("10.1.0.0/16"));
            }
            speaker->addPeer(peer);
            bringUp(id);
        }
    }

    void
    bringUp(PeerId id)
    {
        speaker->startPeer(id, now);
        verify("startPeer");
        speaker->tcpEstablished(id, now);
        verify("tcpEstablished");
        OpenMessage open;
        open.myAs = uint16_t(peerAs.at(id));
        open.holdTimeSec = 0;
        open.bgpIdentifier = 100 + id;
        speaker->handleMessage(id, open, now);
        verify("OPEN");
        speaker->handleMessage(id, KeepaliveMessage{}, now);
        verify("KEEPALIVE");
    }

    bool
    established(PeerId id) const
    {
        return speaker->sessionState(id) == SessionState::Established;
    }

    /** Equal-length paths through a few transit ASes, so two feeds
     *  often tie into an ECMP group. */
    PathAttributesPtr
    randomAttrs(PeerId from)
    {
        static const AsNumber transit[] = {100, 200, 300};
        PathAttributes a;
        a.asPath = AsPath::sequence(
            {peerAs.at(from), transit[rng.below(3)]});
        if (rng.below(4) == 0)
            a.asPath.prepend(peerAs.at(from));
        a.nextHop = net::Ipv4Address(10, 0, uint8_t(from), 9);
        return makeAttributes(std::move(a));
    }

    std::vector<net::Prefix>
    somePrefixes()
    {
        std::vector<net::Prefix> out;
        for (uint64_t n = rng.range(1, 3); n > 0; --n) {
            out.emplace_back(net::Ipv4Address(10, uint8_t(rng.range(1, 3)),
                                              uint8_t(rng.below(4)), 0),
                             24);
        }
        return out;
    }

    std::vector<net::Prefix>
    heldFrom(PeerId id)
    {
        std::vector<net::Prefix> held;
        speaker->adjRibIn(id).forEach(
            [&](const net::Prefix &prefix, const PathAttributesPtr &) {
                held.push_back(prefix);
            });
        return held.empty() ? somePrefixes() : held;
    }

    void
    send(PeerId from, std::vector<net::Prefix> withdrawn,
         std::vector<net::Prefix> nlri, PathAttributesPtr attributes,
         const char *call)
    {
        UpdateMessage update;
        update.withdrawnRoutes = std::move(withdrawn);
        update.nlri = std::move(nlri);
        update.attributes = std::move(attributes);
        speaker->handleMessage(from, update, now);
        verify(call);
    }

    /** One random operation, each public call of it verified. */
    void
    randomStep()
    {
        now += msNs;
        std::vector<PeerId> up;
        for (const auto &[id, asn] : peerAs) {
            if (established(id))
                up.push_back(id);
        }
        uint64_t roll = rng.below(100);
        if (up.empty() || roll >= 60) {
            if (roll < 70) {
                PeerId id = PeerId(rng.below(peerAs.size()));
                if (!established(id)) {
                    bringUp(id);
                    return;
                }
                speaker->tcpClosed(id, now);
                verify("tcpClosed");
                if (rng.below(2))
                    bringUp(id);
            } else if (roll < 78 && !up.empty()) {
                speaker->handleMessage(up[rng.below(up.size())],
                                       RouteRefreshMessage{}, now);
                verify("ROUTE-REFRESH");
            } else if (roll < 89) {
                now += rng.range(1, 20) * secNs;
                speaker->pollTimers(now);
                verify("pollTimers");
            } else {
                now = std::max(now, sink.wakeupAt);
                sink.wakeupAt = 0;
                speaker->serviceWakeup(now);
                verify("serviceWakeup");
            }
            return;
        }
        PeerId from = up[rng.below(up.size())];
        if (roll < 30) {
            send(from, {}, somePrefixes(), randomAttrs(from), "announce");
        } else if (roll < 45) {
            std::vector<net::Prefix> held = heldFrom(from);
            send(from, {held[rng.below(held.size())]}, {}, nullptr,
                 "withdraw");
        } else {
            std::vector<net::Prefix> held = heldFrom(from);
            send(from, {}, {held[rng.below(held.size())]},
                 randomAttrs(from), "attribute change");
        }
    }

    workload::Rng rng{GetParam()};
    Sink sink;
    std::unique_ptr<BgpSpeaker> speaker;
    std::vector<Binding> bindings;
    uint64_t now = secNs;
    int step = 0;
};

} // namespace

TEST_P(SpeakerFold, RegistryEqualsSpeakerCountsAfterEveryCall)
{
    rebind(true);
    addPeers();
    for (step = 1; step <= 600 && !HasFatalFailure(); ++step)
        randomStep();
    // The sequence must move every count, or the check proves little.
    for (const auto &[name, count] : registryCounts(*bindings[0].registry))
        EXPECT_GT(count, 0u) << name;
}

TEST_P(SpeakerFold, RebindingSplitsCountsExactly)
{
    addPeers();
    for (step = 1; step <= 800 && !HasFatalFailure(); ++step) {
        // Detached, bound to a first registry, switched to a second,
        // detached again, then bound to a third.
        if (step == 150 || step == 350 || step == 700)
            rebind(true);
        else if (step == 550)
            rebind(false);
        randomStep();
    }
    ASSERT_EQ(bindings.size(), 3u);
    for (const Binding &binding : bindings) {
        EXPECT_GT(binding.registry->counterValue("bgp.decision_runs"),
                  0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpeakerFold,
                         ::testing::Values(uint64_t(1), uint64_t(2),
                                           uint64_t(3), uint64_t(4)));
