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
/** Speaker 1 / Speaker 2 / router-under-test AS numbers. */
constexpr bgp::AsNumber speaker1As = 65001;
constexpr bgp::AsNumber speaker2As = 65002;
constexpr bgp::AsNumber routerAs = 65000;

} // namespace

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

BenchmarkRunner::~BenchmarkRunner() = default;

router::RouterSystem &
BenchmarkRunner::router()
{
    panicIf(!router_, "no benchmark has run yet");
    return *router_;
}

sim::Simulator &
BenchmarkRunner::simulator()
{
    panicIf(!sim_, "no benchmark has run yet");
    return *sim_;
}

TestPeer &
BenchmarkRunner::speaker1()
{
    panicIf(!speaker1_, "no benchmark has run yet");
    return *speaker1_;
}

TestPeer &
BenchmarkRunner::speaker2()
{
    panicIf(!speaker2_, "no benchmark has run yet");
    return *speaker2_;
}

void
BenchmarkRunner::setUp(const Scenario &scenario)
{
    (void)scenario;

    // Tear down the previous run first (peers reference the router).
    speaker2_.reset();
    speaker1_.reset();
    router_.reset();
    sim_.reset();

    sim_ = std::make_unique<sim::Simulator>();

    router::RouterConfig rc;
    rc.localAs = routerAs;
    rc.routerId = 0x0a000001;
    rc.address = net::Ipv4Address(10, 0, 0, 1);
    rc.damping.enabled = config_.dampingEnabled;

    bgp::PeerConfig p1;
    p1.id = 0;
    p1.asn = speaker1As;
    p1.address = net::Ipv4Address(10, 0, 1, 2);
    p1.importPolicy = config_.importPolicy;
    p1.exportPolicy = config_.exportPolicy;
    bgp::PeerConfig p2;
    p2.id = 1;
    p2.asn = speaker2As;
    p2.address = net::Ipv4Address(10, 0, 2, 2);
    p2.importPolicy = config_.importPolicy;
    p2.exportPolicy = config_.exportPolicy;
    rc.peers = {p1, p2};

    router_ = std::make_unique<router::RouterSystem>(sim_.get(),
                                                     profile_, rc);

    if (config_.crossTrafficMbps > 0) {
        // Static route for the cross-traffic path: the testbed
        // forwards measurement traffic independently of BGP
        // convergence.
        router_->installStaticRoute(crossTrafficPrefix,
                                    net::Ipv4Address(10, 0, 2, 2), 2);

        workload::CrossTrafficConfig ct;
        ct.mbps = config_.crossTrafficMbps;
        ct.packetBytes = crossPacketBytes;
        ct.source = net::Ipv4Address(10, 0, 3, 2);
        for (int i = 0; i < 32; ++i) {
            ct.destinations.push_back(net::Ipv4Address(
                198, 18, uint8_t(i * 7), uint8_t(1 + i)));
        }
        router_->setCrossTraffic(ct);
    }

    TestPeerConfig s1;
    s1.asn = speaker1As;
    s1.routerId = 0x0a000102;
    s1.address = net::Ipv4Address(10, 0, 1, 2);
    speaker1_ = std::make_unique<TestPeer>(sim_.get(), s1,
                                           router_.get(), 0);

    TestPeerConfig s2;
    s2.asn = speaker2As;
    s2.routerId = 0x0a000202;
    s2.address = net::Ipv4Address(10, 0, 2, 2);
    speaker2_ = std::make_unique<TestPeer>(sim_.get(), s2,
                                           router_.get(), 1);

    if (config_.obs) {
        tracer_.attach(&config_.obs->trace);
        router_->speaker().bindObservability(&config_.obs->metrics,
                                             &tracer_, 0);
    } else {
        tracer_.detach();
    }

    router_->start();
}

bool
BenchmarkRunner::runUntil(const std::function<bool()> &done)
{
    const sim::SimTime step = sim::nsFromMs(1);
    while (!done()) {
        if (sim_->now() >= config_.simTimeLimit)
            return false;
        sim_->runUntil(sim_->now() + step);
    }
    return true;
}

BenchmarkResult
BenchmarkRunner::run(const Scenario &scenario)
{
    setUp(scenario);

    BenchmarkResult result;
    result.scenario = scenario;
    result.systemName = profile_.name;
    result.crossTrafficMbps = config_.crossTrafficMbps;

    const size_t n = routes_.size();
    auto &speaker = router_->speaker();

    // --- Session establishment (Speaker 1) ---------------------------
    sim::SimTime establish_begin = sim_->now();
    speaker1_->connect();
    bool established = runUntil([&]() {
        return speaker1_->established() &&
               speaker.sessionState(0) ==
                   bgp::SessionState::Established &&
               router_->controlDrained();
    });
    tracer_.complete("establish", "phase", obs::kTrackPhases, 0,
                     establish_begin, sim_->now());
    if (!established) {
        result.timedOut = true;
        return result;
    }

    // --- Phase 1: Speaker 1 injects the routing table ----------------
    workload::StreamConfig s1_cfg;
    s1_cfg.speakerAs = speaker1As;
    s1_cfg.nextHop = net::Ipv4Address(10, 0, 1, 2);
    s1_cfg.prefixesPerPacket = scenario.prefixesPerPacket();
    // In scenarios 7/8 Speaker 1's paths must be longer than Speaker
    // 2's later ones, so that Speaker 2's replace every best path.
    s1_cfg.extraPrepends =
        scenario.operation == BgpOperation::IncrementalChange ? 2 : 0;

    sim::SimTime phase1_begin = sim_->now();
    double t0 = sim::toSeconds(phase1_begin);
    speaker1_->enqueueStream(
        workload::buildAnnouncementStream(routes_, s1_cfg));
    bool ok = runUntil([&]() {
        return speaker1_->sendComplete() &&
               speaker.counters().announcementsProcessed >= n &&
               router_->controlDrained();
    });
    tracer_.complete("phase1", "phase", obs::kTrackPhases, 0,
                     phase1_begin, sim_->now());
    result.phase1.startSec = t0;
    result.phase1.durationSec = sim::toSeconds(sim_->now()) - t0;
    result.phase1.transactions = n;
    if (!ok) {
        result.timedOut = true;
        return result;
    }

    // --- Phase 2: route propagation to Speaker 2 ---------------------
    if (scenario.usesSecondSpeaker()) {
        sim::SimTime phase2_begin = sim_->now();
        double t2 = sim::toSeconds(phase2_begin);
        speaker2_->connect();
        ok = runUntil([&]() {
            return speaker2_->established() &&
                   speaker2_->counters().announcementsReceived >= n &&
                   router_->controlDrained();
        });
        tracer_.complete("phase2", "phase", obs::kTrackPhases, 0,
                         phase2_begin, sim_->now());
        PhaseResult phase2;
        phase2.startSec = t2;
        phase2.durationSec = sim::toSeconds(sim_->now()) - t2;
        phase2.transactions =
            speaker2_->counters().announcementsReceived;
        result.phase2 = phase2;
        if (!ok) {
            result.timedOut = true;
            return result;
        }
    }

    // --- Phase 3 ------------------------------------------------------
    if (scenario.operation != BgpOperation::StartupAnnounce) {
        sim::SimTime phase3_begin = sim_->now();
        double t3 = sim::toSeconds(phase3_begin);
        PhaseResult phase3;
        phase3.startSec = t3;
        phase3.transactions = n;

        switch (scenario.operation) {
          case BgpOperation::EndingWithdraw: {
            workload::StreamConfig wd = s1_cfg;
            speaker1_->enqueueStream(
                workload::buildWithdrawalStream(routes_, wd));
            ok = runUntil([&]() {
                return speaker1_->sendComplete() &&
                       speaker.counters().withdrawalsProcessed >= n &&
                       router_->controlDrained();
            });
            break;
          }

          case BgpOperation::IncrementalNoChange:
          case BgpOperation::IncrementalChange: {
            workload::StreamConfig s2_cfg;
            s2_cfg.speakerAs = speaker2As;
            s2_cfg.nextHop = net::Ipv4Address(10, 0, 2, 2);
            s2_cfg.prefixesPerPacket = scenario.prefixesPerPacket();
            // Longer paths when the best must not change (5/6);
            // Speaker 1 already has the longer paths in 7/8.
            s2_cfg.extraPrepends =
                scenario.operation ==
                        BgpOperation::IncrementalNoChange
                    ? 2
                    : 0;
            speaker2_->enqueueStream(
                workload::buildAnnouncementStream(routes_, s2_cfg));
            ok = runUntil([&]() {
                return speaker2_->sendComplete() &&
                       speaker.counters().announcementsProcessed >=
                           2 * n &&
                       router_->controlDrained();
            });
            break;
          }

          case BgpOperation::StartupAnnounce:
            break;
        }

        tracer_.complete("phase3", "phase", obs::kTrackPhases, 0,
                         phase3_begin, sim_->now());
        phase3.durationSec = sim::toSeconds(sim_->now()) - t3;
        result.phase3 = phase3;
        if (!ok) {
            result.timedOut = true;
            return result;
        }
    }

    result.measuredTps = scenario.measuresPhase1()
                             ? result.phase1.transactionsPerSecond()
                             : result.phase3->transactionsPerSecond();
    result.dataPlane = router_->dataPlane();
    result.speakerCounters = speaker.counters();
    return result;
}

} // namespace bgpbench::core
