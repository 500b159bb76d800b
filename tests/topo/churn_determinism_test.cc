/**
 * @file
 * Determinism suite for the churn scenario family: declarative
 * ScenarioSpec runs with flap trains, beacon trains, and correlated
 * session resets across the shard cut must render byte-identically at
 * jobs = 1, 2, 4, 8 — including with damping wakeups and MRAI batching active, the two features whose
 * timer traffic is the newest way a parallel schedule could leak into
 * a report. Also pins the pure-function fault-schedule expansion and
 * the four-AS demo spec against its hand-rolled legacy equivalent.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topo/partition.hh"
#include "topo/scenario_spec.hh"
#include "topo/scenarios.hh"
#include "topo/topology.hh"
#include "topo/topology_sim.hh"

using namespace bgpbench;

namespace
{

const std::vector<size_t> kJobCounts = {1, 2, 4, 8};

/** Every deterministic rendering of a scenario result. */
std::string
allRenderings(const topo::ScenarioResult &result)
{
    std::ostringstream os;
    os << result.convergence.toJson() << '\n';
    result.convergence.printCsv(os, true);
    result.convergence.printText(os);
    os << result.stability.toJson() << '\n';
    result.stability.printText(os);
    return os.str();
}

/**
 * Run the spec builder once per jobs count and expect every rendering
 * to match the sequential baseline byte for byte.
 */
template <typename Fn>
void
expectIdenticalAcrossJobs(const char *label, Fn &&makeSpec)
{
    auto run = [&](size_t jobs) {
        topo::ScenarioSpec spec = makeSpec();
        spec.simConfig.jobs = jobs;
        topo::ScenarioResult result =
            topo::ScenarioRunner(std::move(spec)).run();
        EXPECT_TRUE(result.convergence.converged) << label;
        return allRenderings(result);
    };
    std::string baseline = run(1);
    EXPECT_FALSE(baseline.empty());
    for (size_t jobs : kJobCounts) {
        SCOPED_TRACE(std::string(label) + " jobs=" +
                     std::to_string(jobs));
        EXPECT_EQ(run(jobs), baseline);
    }
}

} // namespace

TEST(ChurnDeterminism, FlapTrainMatrixIsByteIdentical)
{
    // Flap + beacon trains with damping and MRAI active: suppression
    // state, reuse wakeups, and deferred flushes all run under the
    // parallel engine and must not leak the schedule into a byte.
    expectIdenticalAcrossJobs("flap train", [] {
        topo::ScenarioSpec spec;
        spec.name = "flap-train";
        spec.shape = "random";
        spec.topology = topo::Topology::barabasiAlbert(16, 2, 42);
        spec.simConfig.damping = topo::churnDampingConfig();
        spec.simConfig.mraiNs = sim::nsFromMs(30);
        spec.faults.linkFlapTrain(1, 0, sim::nsFromMs(100), 50, 4,
                                  sim::nsFromMs(10), 7);
        spec.faults.beaconTrain(2, 0, sim::nsFromMs(25),
                                sim::nsFromMs(100), 4);
        return spec;
    });
}

TEST(ChurnDeterminism, CorrelatedResetAcrossShardCutIsByteIdentical)
{
    // Reset every link of the 4-shard cut at the same instant: the
    // correlated burst lands on the exact links whose messages cross
    // shards, the worst case for event mirroring.
    topo::Topology shape = topo::Topology::ring(16);
    std::vector<size_t> cut = topo::crossShardLinks(
        shape, topo::partitionTopology(shape, 4));
    ASSERT_FALSE(cut.empty());

    expectIdenticalAcrossJobs("correlated reset", [&cut] {
        topo::ScenarioSpec spec;
        spec.name = "correlated-reset";
        spec.shape = "ring";
        spec.topology = topo::Topology::ring(16);
        spec.faults.correlatedReset(cut, sim::nsFromMs(1));
        return spec;
    });
}

TEST(ChurnDeterminism, MixedScheduleMatrixIsByteIdentical)
{
    // Every fault kind in one schedule, overlapping in time.
    expectIdenticalAcrossJobs("mixed schedule", [] {
        topo::ScenarioSpec spec;
        spec.name = "mixed";
        spec.shape = "random";
        spec.topology = topo::Topology::barabasiAlbert(14, 2, 9);
        spec.faults.linkFlapTrain(0, 0, sim::nsFromMs(50), 40, 3)
            .beaconTrain(3, 0, sim::nsFromMs(10), sim::nsFromMs(60),
                         3)
            .sessionReset(4, sim::nsFromMs(20))
            .routerRestart(5, sim::nsFromMs(80), sim::nsFromMs(15));
        return spec;
    });
}

TEST(ChurnDeterminism, FaultScheduleExpansionIsPure)
{
    auto build = [] {
        topo::FaultSchedule faults;
        faults.linkFlapTrain(3, sim::nsFromMs(5), sim::nsFromMs(100),
                             30, 8, sim::nsFromMs(20), 1234);
        return faults;
    };
    topo::FaultSchedule a = build();
    topo::FaultSchedule b = build();
    ASSERT_EQ(a.size(), 16u); // 8 cycles x (down + up)
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].at, b.events()[i].at);
        EXPECT_EQ(a.events()[i].link, 3u);
    }
    // Cycle c: down in [start + c*period, + jitter], up exactly
    // period * duty/100 later; the train ends with the link up.
    for (size_t c = 0; c < 8; ++c) {
        const topo::FaultEvent &down = a.events()[2 * c];
        const topo::FaultEvent &up = a.events()[2 * c + 1];
        EXPECT_EQ(down.kind, topo::FaultEvent::Kind::LinkDown);
        EXPECT_EQ(up.kind, topo::FaultEvent::Kind::LinkUp);
        sim::SimTime base = sim::nsFromMs(5) + c * sim::nsFromMs(100);
        EXPECT_GE(down.at, base);
        EXPECT_LE(down.at, base + sim::nsFromMs(20));
        EXPECT_EQ(up.at - down.at, sim::nsFromMs(100) * 30 / 100);
    }
    EXPECT_EQ(a.events().back().kind, topo::FaultEvent::Kind::LinkUp);

    // Beacon trains end announced and count as prefix transactions.
    topo::FaultSchedule beacon;
    beacon.beaconTrain(2, 0, 0, sim::nsFromMs(40), 5);
    ASSERT_EQ(beacon.size(), 10u);
    EXPECT_EQ(beacon.events().back().kind,
              topo::FaultEvent::Kind::PrefixUp);
    EXPECT_EQ(beacon.prefixEvents(), 10u);
    EXPECT_EQ(a.prefixEvents(), 0u);
}

TEST(ChurnDeterminism, FourAsSpecMatchesHandRolledDemo)
{
    // The declarative demo spec must reproduce, byte for byte, what
    // the bgp_network example's hand-rolled sequence produces. The
    // martian filter keeps the backbone's Loc-RIB different from
    // isp-b's, yet the network is at a BGP fixpoint: every session's
    // Adj-RIB-In holds what the other end exports, so it converged.
    topo::ScenarioResult from_spec =
        topo::ScenarioRunner(topo::demo::fourAsScenario()).run();

    topo::demo::FourAsNetwork net = topo::demo::fourAsPolicyTopology();
    topo::TopologySimConfig config;
    topo::TopologySim sim(std::move(net.topology), config);
    ASSERT_TRUE(sim.runToConvergence(sim::nsFromSec(60.0)));
    sim.tracker().markPhaseStart(sim.now());
    topo::demo::originateDemoRoutes(sim, net, sim.now());
    bool converged = sim.runToConvergence(sim::nsFromSec(60.0));
    topo::ConvergenceReport report =
        sim.report("four-as-demo", "four-as");
    report.converged = converged && sim.locRibsConsistent();

    EXPECT_TRUE(report.converged);
    EXPECT_EQ(from_spec.convergence.toJson(), report.toJson());
}
