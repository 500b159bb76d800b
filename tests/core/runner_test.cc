/**
 * @file
 * Tests for the three-phase benchmark runner.
 */

#include <gtest/gtest.h>

#include "core/benchmark_runner.hh"
#include "net/logging.hh"
#include "net/wire_segment.hh"
#include "workload/churn.hh"

using namespace bgpbench;
using namespace bgpbench::core;

namespace
{

BenchmarkConfig
smallConfig(size_t prefixes = 300)
{
    BenchmarkConfig config;
    config.prefixCount = prefixes;
    config.simTimeLimit = sim::nsFromSec(600.0);
    return config;
}

std::vector<workload::RouteSpec>
routes(size_t count)
{
    workload::RouteSetConfig config;
    config.count = count;
    return workload::generateRouteSet(config);
}

/** How Speaker 1 frames its streams. */
workload::StreamConfig
speaker1Stream(size_t per_packet)
{
    workload::StreamConfig sc;
    sc.speakerAs = 65001;
    sc.nextHop = net::Ipv4Address(10, 0, 1, 2);
    sc.prefixesPerPacket = per_packet;
    return sc;
}

} // namespace

TEST(BenchmarkRunner, RejectsEmptyWorkload)
{
    BenchmarkConfig config;
    config.prefixCount = 0;
    EXPECT_THROW(
        BenchmarkRunner(router::xeonProfile(), config), FatalError);
}

TEST(BenchmarkRunner, AccessorsRequireARun)
{
    BenchmarkRunner runner(router::xeonProfile(), smallConfig());
    EXPECT_THROW(runner.testbed(), PanicError);
    EXPECT_THROW(runner.router(), PanicError);
}

TEST(BenchmarkRunner, Scenario1MeasuresPhase1)
{
    BenchmarkRunner runner(router::xeonProfile(), smallConfig());
    auto result = runner.run(scenarioByNumber(1));

    EXPECT_FALSE(result.timedOut);
    EXPECT_EQ(result.systemName, "Xeon");
    EXPECT_EQ(result.phase1.transactions, 300u);
    EXPECT_FALSE(result.phase2.has_value());
    EXPECT_FALSE(result.phase3.has_value());
    EXPECT_GT(result.measuredTps, 0.0);
    EXPECT_DOUBLE_EQ(result.measuredTps,
                     result.phase1.transactionsPerSecond());

    // The router ended with the full table installed.
    EXPECT_EQ(runner.router().fib().size(), 300u);
    EXPECT_EQ(result.speakerCounters.announcementsProcessed, 300u);
}

TEST(BenchmarkRunner, Scenario3WithdrawsEverything)
{
    BenchmarkRunner runner(router::xeonProfile(), smallConfig());
    auto result = runner.run(scenarioByNumber(3));

    ASSERT_FALSE(result.timedOut);
    ASSERT_TRUE(result.phase3.has_value());
    EXPECT_FALSE(result.phase2.has_value()); // paper: Phase 2 omitted
    EXPECT_EQ(result.phase3->transactions, 300u);
    EXPECT_EQ(result.speakerCounters.withdrawalsProcessed, 300u);
    EXPECT_EQ(runner.router().fib().size(), 0u);
    EXPECT_EQ(runner.router().speaker().locRib().size(), 0u);
}

TEST(BenchmarkRunner, Scenario5LeavesForwardingTableAlone)
{
    BenchmarkRunner runner(router::xeonProfile(), smallConfig());
    auto result = runner.run(scenarioByNumber(5));

    ASSERT_FALSE(result.timedOut);
    ASSERT_TRUE(result.phase2.has_value());
    ASSERT_TRUE(result.phase3.has_value());

    // Phase 3 processed all announcements but changed nothing:
    // fib changes equal the phase-1 installs only.
    EXPECT_EQ(result.speakerCounters.announcementsProcessed, 600u);
    EXPECT_EQ(result.speakerCounters.fibChanges, 300u);
    EXPECT_EQ(runner.router().controlPlane().fibChangesApplied, 300u);

    // Speaker 1's routes are still the best (shorter path).
    const auto &loc_rib = runner.router().speaker().locRib();
    EXPECT_EQ(loc_rib.size(), 300u);
    size_t from_peer0 = 0;
    loc_rib.forEach([&](const net::Prefix &,
                        const bgp::LocRib::Entry &entry) {
        from_peer0 += entry.best.peer == 0;
    });
    EXPECT_EQ(from_peer0, 300u);
}

TEST(BenchmarkRunner, Scenario7ReplacesEveryBestPath)
{
    BenchmarkRunner runner(router::xeonProfile(), smallConfig());
    auto result = runner.run(scenarioByNumber(7));

    ASSERT_FALSE(result.timedOut);
    // Phase 1 installs + phase 3 replaces: 2N FIB changes.
    EXPECT_EQ(result.speakerCounters.fibChanges, 600u);

    // Every best route now comes from Speaker 2 with next hop
    // 10.0.2.2.
    const auto &loc_rib = runner.router().speaker().locRib();
    size_t from_peer1 = 0;
    loc_rib.forEach([&](const net::Prefix &,
                        const bgp::LocRib::Entry &entry) {
        from_peer1 += entry.best.peer == 1;
    });
    EXPECT_EQ(from_peer1, 300u);

    // Speaker 1 was told about the new (shorter) paths in Phase 3.
    EXPECT_GT(
        runner.testbed().speaker1().counters().announcementsReceived,
        0u);
}

TEST(BenchmarkRunner, Phase2DeliversTableToSpeaker2)
{
    BenchmarkRunner runner(router::xeonProfile(), smallConfig());
    auto result = runner.run(scenarioByNumber(6));
    ASSERT_FALSE(result.timedOut);
    ASSERT_TRUE(result.phase2.has_value());
    EXPECT_EQ(result.phase2->transactions, 300u);
    EXPECT_EQ(
        runner.testbed().speaker2().counters().announcementsReceived,
        300u);
}

TEST(BenchmarkRunner, LargePacketsFasterThanSmall)
{
    BenchmarkRunner runner(router::pentium3Profile(), smallConfig());
    auto small = runner.run(scenarioByNumber(1));
    auto large = runner.run(scenarioByNumber(2));
    ASSERT_FALSE(small.timedOut);
    ASSERT_FALSE(large.timedOut);
    EXPECT_GT(large.measuredTps, small.measuredTps * 1.3);
}

TEST(BenchmarkRunner, RunsAreReproducible)
{
    BenchmarkRunner runner(router::xeonProfile(), smallConfig());
    auto a = runner.run(scenarioByNumber(2));
    auto b = runner.run(scenarioByNumber(2));
    EXPECT_DOUBLE_EQ(a.measuredTps, b.measuredTps);
    EXPECT_DOUBLE_EQ(a.phase1.durationSec, b.phase1.durationSec);
}

TEST(BenchmarkRunner, ObservabilityDoesNotPerturbResults)
{
    // Attaching the metric registry and tracer must not change any
    // virtual-time result — same phases, same durations, same
    // transaction counts — for every Table III scenario shape the
    // runner distinguishes (phase1-only, phase2, phase3).
    for (int scenario : {1, 2, 6, 8}) {
        SCOPED_TRACE("scenario " + std::to_string(scenario));
        BenchmarkRunner detached(router::xeonProfile(),
                                 smallConfig());
        auto baseline = detached.run(scenarioByNumber(scenario));

        obs::RunObservability obs;
        BenchmarkConfig config = smallConfig();
        config.obs = &obs;
        BenchmarkRunner traced(router::xeonProfile(), config);
        auto result = traced.run(scenarioByNumber(scenario));

        EXPECT_DOUBLE_EQ(result.measuredTps, baseline.measuredTps);
        EXPECT_DOUBLE_EQ(result.phase1.durationSec,
                         baseline.phase1.durationSec);
        EXPECT_EQ(result.phase1.transactions,
                  baseline.phase1.transactions);
        ASSERT_EQ(result.phase3.has_value(),
                  baseline.phase3.has_value());
        if (baseline.phase3) {
            EXPECT_DOUBLE_EQ(result.phase3->durationSec,
                             baseline.phase3->durationSec);
            EXPECT_EQ(result.phase3->transactions,
                      baseline.phase3->transactions);
        }
        EXPECT_EQ(result.speakerCounters.updatesReceived,
                  baseline.speakerCounters.updatesReceived);

        // The traced run recorded its phases in virtual time.
        EXPECT_FALSE(obs.trace.empty());
        bool saw_phase1 = false;
        for (const obs::TraceEvent &event : obs.trace.events()) {
            if (std::string(event.name) == "phase1")
                saw_phase1 = true;
        }
        EXPECT_TRUE(saw_phase1);
        EXPECT_GT(
            obs.metrics.counterValue("bgp.updates_received"), 0u);
    }
}

TEST(BenchmarkRunner, CrossTrafficIsForwardedDuringRun)
{
    BenchmarkConfig config = smallConfig();
    config.crossTrafficMbps = 100.0;
    BenchmarkRunner runner(router::pentium3Profile(), config);
    auto result = runner.run(scenarioByNumber(2));
    ASSERT_FALSE(result.timedOut);
    EXPECT_GT(result.dataPlane.forwardedPackets, 1000u);
    EXPECT_EQ(result.dataPlane.busDrops, 0u);
}

TEST(BenchmarkRunner, TimeoutReported)
{
    BenchmarkConfig config = smallConfig(2000);
    config.simTimeLimit = sim::nsFromSec(1.0); // far too short
    BenchmarkRunner runner(router::ixp2400Profile(), config);
    auto result = runner.run(scenarioByNumber(1));
    EXPECT_TRUE(result.timedOut);
}

TEST(Testbed, SecondSpeakerStaysIdleUntilEstablished)
{
    // Speaker 2 is never connected, as in the single-speaker benches:
    // through Speaker 1's whole table phase the router's port-1
    // session stays Idle and sends it nothing.
    Testbed tb(router::pentium3Profile(), smallConfig());
    ASSERT_TRUE(tb.establish(tb.speaker1()));
    PhaseResult phase;
    ASSERT_TRUE(tb.inject(
        tb.speaker1(),
        workload::buildAnnouncementStream(routes(300),
                                          speaker1Stream(1)),
        phase));
    ASSERT_GT(phase.durationSec, 1.0); // the 1 s session timer ran

    EXPECT_EQ(tb.router().speaker().sessionState(1),
              bgp::SessionState::Idle);
    const TestPeerCounters &received = tb.speaker2().counters();
    EXPECT_EQ(received.keepalivesReceived, 0u);
    EXPECT_EQ(received.updatesReceived, 0u);
    EXPECT_EQ(received.segmentsSent, 0u);
    EXPECT_FALSE(tb.speaker2().established());
}

TEST(Testbed, InjectReturnsOnceEveryTransactionIsProcessed)
{
    Testbed tb(router::pentium3Profile(), smallConfig());
    ASSERT_TRUE(tb.establish(tb.speaker1()));

    auto table = routes(300);
    workload::ChurnConfig churn;
    churn.stream = speaker1Stream(10);
    churn.events = 600;
    std::vector<std::vector<workload::StreamPacket>> streams;
    streams.push_back(
        workload::buildAnnouncementStream(table, speaker1Stream(10)));
    streams.push_back(workload::buildChurnStream(table, churn));
    streams.push_back(
        workload::buildWithdrawalStream(table, speaker1Stream(10)));

    const auto &counters = tb.router().speaker().counters();
    for (auto &stream : streams) {
        const uint64_t before = counters.transactionsProcessed();
        const size_t transactions = workload::streamTransactions(stream);
        PhaseResult phase;
        ASSERT_TRUE(tb.inject(tb.speaker1(), std::move(stream), phase));
        EXPECT_EQ(counters.transactionsProcessed(),
                  before + transactions);
        EXPECT_EQ(phase.transactions, transactions);
        EXPECT_TRUE(tb.speaker1().sendComplete());
        EXPECT_TRUE(tb.router().controlDrained());
    }
    EXPECT_EQ(tb.router().fib().size(), 0u);
}

TEST(Testbed, InjectPastTheCapReportsTimeout)
{
    BenchmarkConfig config = smallConfig();
    config.simTimeLimit = sim::nsFromSec(1.0);

    // About 92.5 ms per small UPDATE: 300 of them take half a minute.
    Testbed slow(router::ciscoProfile(), config);
    ASSERT_TRUE(slow.establish(slow.speaker1()));
    PhaseResult phase;
    EXPECT_FALSE(slow.inject(
        slow.speaker1(),
        workload::buildAnnouncementStream(routes(300),
                                          speaker1Stream(1)),
        phase));
    EXPECT_GT(phase.startSec, 0.0);
    EXPECT_GT(phase.durationSec, 0.0);
    EXPECT_DOUBLE_EQ(phase.startSec + phase.durationSec, 1.0);
    EXPECT_EQ(phase.transactions, 300u);

    // Junk ahead of 20 announcements closes the session, so the router
    // never processes them. The stream is sent in full and the router
    // drains: only the transaction count tells this from a finished
    // phase.
    Testbed lossy(router::xeonProfile(), config);
    ASSERT_TRUE(lossy.establish(lossy.speaker1()));
    auto stream = workload::buildAnnouncementStream(routes(20),
                                                    speaker1Stream(10));
    stream.insert(stream.begin(),
                  {net::BufferPool::global().wrap(
                       std::vector<uint8_t>(64, 0xab)),
                   0});
    PhaseResult lost;
    EXPECT_FALSE(lossy.inject(lossy.speaker1(), std::move(stream), lost));
    EXPECT_DOUBLE_EQ(lost.startSec + lost.durationSec, 1.0);
    EXPECT_EQ(lost.transactions, 20u);
    EXPECT_TRUE(lossy.speaker1().sendComplete());
    EXPECT_TRUE(lossy.router().controlDrained());
    EXPECT_EQ(
        lossy.router().speaker().counters().transactionsProcessed(), 0u);
}
