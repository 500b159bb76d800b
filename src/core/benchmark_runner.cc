#include "core/benchmark_runner.hh"

#include "net/logging.hh"
#include "workload/update_stream.hh"

namespace bgpbench::core
{

namespace
{

/** Prefix the static cross-traffic route covers (RFC 2544 space). */
const net::Prefix crossTrafficPrefix =
    net::Prefix(net::Ipv4Address(198, 18, 0, 0), 15);
/** Cross-traffic frame size. */
constexpr uint32_t crossPacketBytes = 1000;
/** The two speakers; the router keeps RouterConfig's AS 65000 and
 *  address 10.0.0.1. */
constexpr TestPeerConfig speaker1Id{65001, 0x0a000102,
                                    net::Ipv4Address(10, 0, 1, 2)};
constexpr TestPeerConfig speaker2Id{65002, 0x0a000202,
                                    net::Ipv4Address(10, 0, 2, 2)};

router::RouterConfig
routerConfig(const BenchmarkConfig &config)
{
    router::RouterConfig rc;
    rc.damping.enabled = config.dampingEnabled;
    for (const TestPeerConfig &speaker : {speaker1Id, speaker2Id}) {
        bgp::PeerConfig peer;
        peer.id = bgp::PeerId(rc.peers.size());
        peer.asn = speaker.asn;
        peer.address = speaker.address;
        peer.importPolicy = config.importPolicy;
        peer.exportPolicy = config.exportPolicy;
        rc.peers.push_back(std::move(peer));
    }
    return rc;
}

} // namespace

Testbed::Testbed(const router::SystemProfile &profile,
                 const BenchmarkConfig &config)
    : simTimeLimit_(config.simTimeLimit),
      router_(&sim_, profile, routerConfig(config)),
      speaker1_(&sim_, speaker1Id, &router_, 0),
      speaker2_(&sim_, speaker2Id, &router_, 1)
{
    if (config.crossTrafficMbps > 0) {
        // Static route for the cross-traffic path: the testbed
        // forwards measurement traffic independently of BGP
        // convergence.
        router_.installStaticRoute(crossTrafficPrefix,
                                   speaker2Id.address, 2);

        workload::CrossTrafficConfig ct;
        ct.mbps = config.crossTrafficMbps;
        ct.packetBytes = crossPacketBytes;
        ct.source = net::Ipv4Address(10, 0, 3, 2);
        for (int i = 0; i < 32; ++i) {
            ct.destinations.push_back(net::Ipv4Address(
                198, 18, uint8_t(i * 7), uint8_t(1 + i)));
        }
        router_.setCrossTraffic(ct);
    }
    router_.start();
}

bool
Testbed::runUntil(const std::function<bool()> &done)
{
    const sim::SimTime step = sim::nsFromMs(1);
    while (!done()) {
        if (sim_.now() >= simTimeLimit_)
            return false;
        sim_.runUntil(sim_.now() + step);
    }
    return true;
}

bool
Testbed::establish(TestPeer &peer)
{
    peer.connect();
    return runUntil([&]() {
        return peer.established() &&
               router_.speaker().sessionState(bgp::PeerId(
                   peer.port())) == bgp::SessionState::Established &&
               router_.controlDrained();
    });
}

bool
Testbed::inject(TestPeer &peer,
                std::vector<workload::StreamPacket> stream,
                PhaseResult &phase)
{
    const bgp::SpeakerCounters &counters = router_.speaker().counters();
    phase.startSec = sim::toSeconds(sim_.now());
    phase.transactions = workload::streamTransactions(stream);
    const uint64_t target =
        counters.transactionsProcessed() + phase.transactions;
    peer.enqueueStream(std::move(stream));
    bool done = runUntil([&]() {
        return peer.sendComplete() &&
               counters.transactionsProcessed() >= target &&
               router_.controlDrained();
    });
    phase.durationSec = sim::toSeconds(sim_.now()) - phase.startSec;
    return done;
}

BenchmarkRunner::BenchmarkRunner(router::SystemProfile profile,
                                 BenchmarkConfig config)
    : profile_(std::move(profile)), config_(config)
{
    if (config_.prefixCount == 0)
        fatal("benchmark requires at least one prefix");

    workload::RouteSetConfig rc;
    rc.count = config_.prefixCount;
    rc.seed = config_.seed;
    routes_ = workload::generateRouteSet(rc);
}

Testbed &
BenchmarkRunner::testbed()
{
    panicIf(!testbed_, "no benchmark has run yet");
    return *testbed_;
}

BenchmarkResult
BenchmarkRunner::run(const Scenario &scenario)
{
    // Tear down the previous run before building the next.
    testbed_.reset();
    testbed_ = std::make_unique<Testbed>(profile_, config_);
    Testbed &tb = *testbed_;
    sim::Simulator &sim = tb.simulator();
    auto &speaker = tb.router().speaker();
    if (config_.obs) {
        tracer_.attach(&config_.obs->trace);
        speaker.bindObservability(&config_.obs->metrics, &tracer_, 0);
    } else {
        tracer_.detach();
    }

    BenchmarkResult result;
    result.scenario = scenario;
    result.systemName = profile_.name;
    result.crossTrafficMbps = config_.crossTrafficMbps;

    const size_t n = routes_.size();

    // --- Session establishment (Speaker 1) ---------------------------
    sim::SimTime begin = sim.now();
    bool ok = tb.establish(tb.speaker1());
    tracer_.complete("establish", "phase", obs::kTrackPhases, 0, begin,
                     sim.now());
    if (!ok) {
        result.timedOut = true;
        return result;
    }

    // --- Phase 1: Speaker 1 injects the routing table ----------------
    workload::StreamConfig s1_cfg;
    s1_cfg.speakerAs = speaker1Id.asn;
    s1_cfg.nextHop = speaker1Id.address;
    s1_cfg.prefixesPerPacket = scenario.prefixesPerPacket();
    // In scenarios 7/8 Speaker 1's paths must be longer than Speaker
    // 2's later ones, so that Speaker 2's replace every best path.
    s1_cfg.extraPrepends =
        scenario.operation == BgpOperation::IncrementalChange ? 2 : 0;

    begin = sim.now();
    ok = tb.inject(tb.speaker1(),
                   workload::buildAnnouncementStream(routes_, s1_cfg),
                   result.phase1);
    tracer_.complete("phase1", "phase", obs::kTrackPhases, 0, begin,
                     sim.now());
    if (!ok) {
        result.timedOut = true;
        return result;
    }

    // --- Phase 2: route propagation to Speaker 2 ---------------------
    if (scenario.usesSecondSpeaker()) {
        TestPeer &speaker2 = tb.speaker2();
        begin = sim.now();
        // An established session does not fall back, so this stops
        // at the first step where all three conditions hold.
        ok = tb.establish(speaker2) && tb.runUntil([&]() {
            return speaker2.counters().announcementsReceived >= n &&
                   tb.router().controlDrained();
        });
        tracer_.complete("phase2", "phase", obs::kTrackPhases, 0, begin,
                         sim.now());
        PhaseResult &phase2 = result.phase2.emplace();
        phase2.startSec = sim::toSeconds(begin);
        phase2.durationSec = sim::toSeconds(sim.now()) - phase2.startSec;
        phase2.transactions = speaker2.counters().announcementsReceived;
        if (!ok) {
            result.timedOut = true;
            return result;
        }
    }

    // --- Phase 3 ------------------------------------------------------
    if (scenario.operation != BgpOperation::StartupAnnounce) {
        TestPeer *sender = &tb.speaker1();
        std::vector<workload::StreamPacket> stream;
        if (scenario.operation == BgpOperation::EndingWithdraw) {
            stream = workload::buildWithdrawalStream(routes_, s1_cfg);
        } else {
            workload::StreamConfig s2_cfg = s1_cfg;
            s2_cfg.speakerAs = speaker2Id.asn;
            s2_cfg.nextHop = speaker2Id.address;
            // Longer paths when the best must not change (5/6);
            // Speaker 1 already has the longer paths in 7/8.
            s2_cfg.extraPrepends =
                scenario.operation == BgpOperation::IncrementalNoChange
                    ? 2
                    : 0;
            sender = &tb.speaker2();
            stream = workload::buildAnnouncementStream(routes_, s2_cfg);
        }

        begin = sim.now();
        ok = tb.inject(*sender, std::move(stream),
                       result.phase3.emplace());
        tracer_.complete("phase3", "phase", obs::kTrackPhases, 0, begin,
                         sim.now());
        if (!ok) {
            result.timedOut = true;
            return result;
        }
    }

    result.measuredTps = scenario.measuresPhase1()
                             ? result.phase1.transactionsPerSecond()
                             : result.phase3->transactionsPerSecond();
    result.dataPlane = tb.router().dataPlane();
    result.speakerCounters = speaker.counters();
    return result;
}

} // namespace bgpbench::core
