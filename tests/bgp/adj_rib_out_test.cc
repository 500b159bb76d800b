/**
 * @file
 * The Adj-RIB-Out invariant, checked on the wire. A speaker with
 * three eBGP feeds, an eBGP peer behind an export route-map, an iBGP
 * reflection client and an iBGP non-client runs a seeded random
 * sequence of announcements, withdrawals, attribute changes, session
 * resets, route refreshes and damping time advances. The sink folds
 * every UPDATE the speaker sends into "what the peer was told". After
 * every step, each Established peer must have been told exactly the
 * export of the speaker's Loc-RIB, computed here from scratch with
 * the export rules written out by hand, and the speaker's Adj-RIB-Out
 * read-out must agree.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "bgp/message.hh"
#include "bgp/policy.hh"
#include "bgp/speaker.hh"
#include "workload/rng.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

constexpr AsNumber localAs = 65000;
constexpr RouterId localId = 1;
const net::Ipv4Address localAddress(10, 255, 0, 1);
constexpr uint64_t msNs = 1'000'000;
constexpr uint64_t secNs = 1'000'000'000;

struct PeerSpec
{
    PeerId id;
    AsNumber asn;
    bool client = false;
    bool mapped = false;

    bool ibgp() const { return asn == localAs; }
};

/** Three eBGP feeds, the route-mapped eBGP peer, the RR client and
 *  the iBGP non-client. */
const std::vector<PeerSpec> peerSpecs = {
    {0, 64601}, {1, 64602}, {2, 64603}, {3, 64700, false, true},
    {4, localAs, true},     {5, localAs},
};

/** The mapped peer's route-map denies every route inside this /16. */
const net::Prefix deniedRange = net::Prefix::fromString("10.1.0.0/16");
/** ... and prepends the local AS this many times to the rest. */
constexpr int mappedPrepends = 2;

Policy
mappedExportPolicy()
{
    auto list = std::make_shared<PrefixList>("deny-10-1");
    list->add(10, true, deniedRange, std::nullopt, 32);
    auto map = std::make_shared<RouteMap>("to-64700");
    RouteMapEntry deny;
    deny.seq = 10;
    deny.permit = false;
    deny.prefixList = list;
    map->add(deny);
    RouteMapEntry prepend;
    prepend.seq = 20;
    prepend.set.prependCount = mappedPrepends;
    map->add(prepend);
    return Policy(map);
}

std::vector<net::Prefix>
prefixPool()
{
    std::vector<net::Prefix> pool;
    for (uint8_t i = 0; i < 8; ++i) {
        pool.emplace_back(net::Ipv4Address(10, 1, i, 0), 24);
        pool.emplace_back(net::Ipv4Address(10, 2, i, 0), 24);
    }
    pool.push_back(net::Prefix::fromString("10.3.0.0/16"));
    pool.push_back(net::Prefix::fromString("10.3.0.0/20"));
    return pool;
}

/** What each peer holds from us: prefix -> attributes. */
using Held = std::map<net::Prefix, PathAttributes>;

/** Folds every UPDATE the speaker sends into what each peer holds. */
class WireLog : public SpeakerEvents
{
  public:
    void
    onTransmit(PeerId to, MessageType type, net::WireSegmentPtr wire,
               size_t) override
    {
        if (type != MessageType::Update)
            return;
        ++updates;
        DecodeError error;
        auto msg = decodeMessage(wire->bytes(), error);
        if (!msg) {
            ADD_FAILURE() << "undecodable UPDATE to peer " << to << ": "
                          << error.detail;
            return;
        }
        const auto &update = std::get<UpdateMessage>(*msg);
        Held &held = told[to];
        for (const auto &prefix : update.withdrawnRoutes) {
            if (held.erase(prefix) == 0)
                ADD_FAILURE() << "step " << step << ": peer " << to
                              << " withdrawn " << prefix.toString()
                              << ", which it was never told";
        }
        for (const auto &prefix : update.nlri)
            held.insert_or_assign(prefix, *update.attributes);
    }

    void
    onSessionStateChange(PeerId peer, SessionState,
                         SessionState current) override
    {
        // A peer whose session drops forgets what it was told; the
        // next Established starts from the full table.
        if (current != SessionState::Established)
            told.erase(peer);
    }

    std::map<PeerId, Held> told;
    size_t updates = 0;
    int step = 0;
};

/**
 * export(peer, best) of every Loc-RIB route, from the plain rules:
 * never back to the source peer; iBGP-learned routes to iBGP peers
 * only when source or target is a reflection client, stamped with
 * ORIGINATOR_ID and our cluster id; the route-map; on eBGP, no path
 * through the peer's AS, then our AS prepended, next-hop self and
 * LOCAL_PREF and the reflection attributes stripped.
 */
Held
expectedExport(const BgpSpeaker &speaker, const PeerSpec &to)
{
    Held out;
    speaker.locRib().forEach([&](const net::Prefix &prefix,
                                 const LocRib::Entry &entry) {
        const Candidate &best = entry.best;
        if (best.peer == to.id)
            return;
        PathAttributes attrs = *best.attributes;
        bool reflect = false;
        if (to.ibgp() && !best.externalSession &&
            best.peer != BgpSpeaker::localPeerId) {
            if (!peerSpecs.at(best.peer).client && !to.client)
                return;
            reflect = true;
        }
        if (to.mapped) {
            if (deniedRange.covers(prefix))
                return;
            for (int i = 0; i < mappedPrepends; ++i)
                attrs.asPath.prepend(localAs);
        }
        if (!to.ibgp()) {
            if (attrs.asPath.contains(to.asn))
                return;
            attrs.asPath.prepend(localAs);
            attrs.nextHop = localAddress;
            attrs.localPref.reset();
            attrs.originatorId.reset();
            attrs.clusterList.clear();
        } else if (reflect) {
            if (!attrs.originatorId)
                attrs.originatorId = best.peerRouterId;
            attrs.clusterList.insert(attrs.clusterList.begin(), localId);
        }
        out.emplace(prefix, std::move(attrs));
    });
    return out;
}

std::string
describe(const Held &held)
{
    std::string s;
    for (const auto &[prefix, attrs] : held)
        s += "  " + prefix.toString() + " " + attrs.asPath.toString() +
             "\n";
    return s;
}

class AdjRibOutWire
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>>
{
  protected:
    void
    SetUp() override
    {
        SpeakerConfig config;
        config.localAs = localAs;
        config.routerId = localId;
        config.localAddress = localAddress;
        config.holdTimeSec = 0;
        config.maxPaths = std::get<0>(GetParam());
        config.damping.enabled = true;
        config.damping.halfLifeSec = 10.0;
        speaker = std::make_unique<BgpSpeaker>(config, &log);
        for (const PeerSpec &spec : peerSpecs) {
            PeerConfig peer;
            peer.id = spec.id;
            peer.asn = spec.asn;
            peer.address = net::Ipv4Address(10, 0, uint8_t(spec.id), 2);
            peer.routeReflectorClient = spec.client;
            if (spec.mapped)
                peer.exportPolicy = mappedExportPolicy();
            speaker->addPeer(peer);
            bringUp(spec);
        }
    }

    void
    bringUp(const PeerSpec &spec)
    {
        speaker->startPeer(spec.id, now);
        speaker->tcpEstablished(spec.id, now);
        OpenMessage open;
        open.myAs = uint16_t(spec.asn);
        open.holdTimeSec = 0;
        open.bgpIdentifier = 100 + spec.id;
        speaker->handleMessage(spec.id, open, now);
        speaker->handleMessage(spec.id, KeepaliveMessage{}, now);
    }

    bool
    established(PeerId peer) const
    {
        return speaker->sessionState(peer) == SessionState::Established;
    }

    /** A random attribute set as peer @p from would send it. */
    PathAttributesPtr
    randomAttrs(const PeerSpec &from)
    {
        static const AsNumber transit[] = {100, 200, 64601, 64602,
                                           64603, 64700, localAs};
        std::vector<AsNumber> path;
        if (!from.ibgp())
            path.push_back(from.asn);
        for (uint64_t n = rng.below(3); n > 0; --n) {
            // Our own AS is rare: such a path loops and acts as a
            // withdrawal.
            size_t pick = rng.below(16) == 0 ? 6 : rng.below(6);
            path.push_back(transit[pick]);
        }
        PathAttributes a;
        a.asPath = AsPath::sequence(std::move(path));
        a.nextHop = net::Ipv4Address(10, 0, uint8_t(rng.below(3)), 9);
        if (rng.below(3) == 0)
            a.med = uint32_t(rng.below(2) * 50);
        if (rng.below(4) == 0)
            a.communities = {uint32_t(65000u << 16 | rng.below(2))};
        if (from.ibgp()) {
            if (rng.below(2))
                a.localPref = uint32_t(100 + 100 * rng.below(2));
            if (rng.below(6) == 0)
                a.originatorId = rng.below(4) == 0 ? localId : 7;
            if (rng.below(6) == 0)
                a.clusterList = {rng.below(4) == 0 ? localId : 9u};
        }
        return makeAttributes(std::move(a));
    }

    std::vector<net::Prefix>
    somePrefixes()
    {
        // Repeats are kept: a peer may list a prefix twice in one
        // UPDATE, and the second copy may undo what the first did
        // (a damping penalty suppressing the route the first made
        // best) before the flush.
        std::vector<net::Prefix> out;
        for (uint64_t n = rng.range(1, 4); n > 0; --n)
            out.push_back(pool[rng.below(pool.size())]);
        return out;
    }

    /** A random Established peer, or nullopt if none is. */
    std::optional<PeerSpec>
    establishedPeer()
    {
        std::vector<PeerSpec> up;
        for (const PeerSpec &spec : peerSpecs) {
            if (established(spec.id))
                up.push_back(spec);
        }
        if (up.empty())
            return std::nullopt;
        return up[rng.below(up.size())];
    }

    void
    send(PeerId from, std::vector<net::Prefix> withdrawn,
         std::vector<net::Prefix> nlri, PathAttributesPtr attributes)
    {
        UpdateMessage update;
        update.withdrawnRoutes = std::move(withdrawn);
        update.nlri = std::move(nlri);
        update.attributes = std::move(attributes);
        speaker->handleMessage(from, update, now);
    }

    /** Every peer's expected export (empty when not Established). */
    std::map<PeerId, Held>
    expectedAll() const
    {
        std::map<PeerId, Held> all;
        for (const PeerSpec &spec : peerSpecs) {
            if (established(spec.id))
                all[spec.id] = expectedExport(*speaker, spec);
        }
        return all;
    }

    void
    checkInvariant(const char *op)
    {
        for (const PeerSpec &spec : peerSpecs) {
            const Held &told = log.told[spec.id];
            Held view;
            speaker->adjRibOut(spec.id).forEach(
                [&](const net::Prefix &prefix,
                    const PathAttributesPtr &attrs) {
                    view.emplace(prefix, *attrs);
                });
            EXPECT_EQ(speaker->adjRibOut(spec.id).size(), view.size());
            EXPECT_TRUE(view == told)
                << "step " << log.step << " (" << op << "), peer "
                << spec.id << ": Adj-RIB-Out read-out\n"
                << describe(view) << "wire\n"
                << describe(told);
            if (!established(spec.id)) {
                EXPECT_TRUE(told.empty());
                continue;
            }
            Held expected = expectedExport(*speaker, spec);
            ASSERT_TRUE(told == expected)
                << "step " << log.step << " (" << op << "), peer "
                << spec.id << ": told\n"
                << describe(told) << "expected\n"
                << describe(expected);
        }
    }

    workload::Rng rng{std::get<1>(GetParam())};
    const std::vector<net::Prefix> pool = prefixPool();
    WireLog log;
    std::unique_ptr<BgpSpeaker> speaker;
    uint64_t now = secNs;
};

} // namespace

TEST_P(AdjRibOutWire, ToldEqualsExportOfLocRib)
{
    checkInvariant("session up");
    size_t quiet_steps = 0;
    for (log.step = 1; log.step <= 600; ++log.step) {
        now += msNs;
        std::map<PeerId, Held> before = expectedAll();
        size_t updates_before = log.updates;
        bool routing_step = false;
        const char *op = "";
        uint64_t roll = rng.below(100);
        std::optional<PeerSpec> from = establishedPeer();
        if (roll < 35 && from) {
            op = "announce";
            routing_step = true;
            send(from->id, {}, somePrefixes(), randomAttrs(*from));
        } else if (roll < 55 && from) {
            op = "withdraw";
            routing_step = true;
            std::vector<net::Prefix> withdrawn;
            speaker->adjRibIn(from->id).forEach(
                [&](const net::Prefix &prefix, const PathAttributesPtr &) {
                    if (rng.below(3) == 0)
                        withdrawn.push_back(prefix);
                });
            if (withdrawn.empty())
                withdrawn = somePrefixes();
            send(from->id, std::move(withdrawn), {}, nullptr);
        } else if (roll < 70 && from) {
            op = "attribute change";
            routing_step = true;
            std::vector<net::Prefix> held;
            speaker->adjRibIn(from->id).forEach(
                [&](const net::Prefix &prefix, const PathAttributesPtr &) {
                    held.push_back(prefix);
                });
            if (held.empty())
                held = somePrefixes();
            send(from->id, {}, {held[rng.below(held.size())]},
                 randomAttrs(*from));
        } else if (roll < 80) {
            op = "session reset";
            const PeerSpec &spec = peerSpecs[rng.below(peerSpecs.size())];
            if (established(spec.id)) {
                speaker->tcpClosed(spec.id, now);
                if (rng.below(2))
                    bringUp(spec);
            } else {
                bringUp(spec);
            }
        } else if (roll < 90 && from) {
            op = "route refresh";
            RouteRefreshMessage refresh;
            refresh.afi = 1;
            refresh.safi = 1;
            speaker->handleMessage(from->id, refresh, now);
        } else {
            op = "damping time advance";
            now += rng.range(1, 30) * secNs;
            speaker->pollTimers(now);
        }

        checkInvariant(op);
        if (HasFatalFailure())
            return;
        if (routing_step && expectedAll() == before) {
            ++quiet_steps;
            EXPECT_EQ(log.updates, updates_before)
                << "step " << log.step << " (" << op
                << ") changed no peer's export but sent an UPDATE";
        }
    }
    // The sequence must exercise the no-change path, not only churn.
    EXPECT_GT(quiet_steps, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AdjRibOutWire,
    ::testing::Combine(::testing::Values(size_t(1), size_t(4)),
                       ::testing::Values(uint64_t(1), uint64_t(2),
                                         uint64_t(3), uint64_t(4))),
    [](const auto &info) {
        return "MaxPaths" + std::to_string(std::get<0>(info.param)) +
               "Seed" + std::to_string(std::get<1>(info.param));
    });
