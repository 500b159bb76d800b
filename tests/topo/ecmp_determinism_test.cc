/**
 * @file
 * Determinism suite for maximum-paths ECMP: on a Clos fabric — the
 * topology whose equal-length tor/agg/spine path sets are exactly what
 * maximum-paths exists for — runs at jobs = 1, 2, 4, 8 and
 * maximum-paths 1 and 4 must produce byte-identical reports, including
 * runs where faults land while convergence traffic is in flight.
 * Also pins the two directional invariants: maximum-paths 1 behaves
 * exactly like the pre-ECMP engine, and maximum-paths > 1 actually
 * forms multipath groups on the fabric.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/rib.hh"
#include "topo/scenarios.hh"
#include "topo/topology.hh"
#include "topo/topology_sim.hh"

using namespace bgpbench;

namespace
{

const std::vector<size_t> kJobCounts = {1, 2, 4, 8};

/** A 10-node fabric: 2 spines, 2 pods x (2 aggs + 2 tors). */
topo::Topology
smallClos()
{
    return topo::Topology::clos({});
}

/**
 * The fabric's ToR node indices: the nodes whose AS no other node
 * shares, where the default topology workload originates too.
 * Prefixes originate at ToRs, as in a real datacenter — a spine- or
 * agg-originated prefix can never reach the other members of its
 * shared AS (their own AS in the path loop-rejects it), so only ToR
 * routes are network-wide reachable.
 */
std::vector<size_t>
tors()
{
    topo::Topology clos = smallClos();
    std::vector<size_t> out;
    for (size_t node = 0; node < clos.nodeCount(); ++node) {
        if (clos.soleNodeOfAs(node))
            out.push_back(node);
    }
    return out;
}

std::string
allRenderings(const topo::ConvergenceReport &report)
{
    std::ostringstream os;
    os << report.toJson() << '\n';
    report.printCsv(os, true);
    report.printText(os);
    return os.str();
}

/**
 * Converge the fabric with every ToR originating one prefix and a
 * link flap plus a session reset landing mid-convergence, and render
 * the full report.
 */
std::string
runClos(size_t jobs, size_t max_paths, bool faults)
{
    topo::TopologySimConfig config;
    config.jobs = jobs;
    config.maxPaths = max_paths;
    topo::TopologySim sim(smallClos(), config);
    for (size_t tor : tors())
        sim.originate(tor, topo::scenarioPrefix(tor, 0), 0);
    if (faults) {
        // Link 0 is a tor->agg uplink; losing and regaining it
        // re-forms the ECMP groups behind it mid-window.
        sim.scheduleLinkDown(0, sim::nsFromUs(300));
        sim.scheduleSessionReset(3, sim::nsFromUs(450));
        sim.scheduleLinkUp(0, sim::nsFromMs(2));
    }
    bool converged = sim.runToConvergence(sim::nsFromSec(600.0));
    EXPECT_TRUE(converged);
    topo::ConvergenceReport report = sim.report("ecmp", "clos");
    report.converged = converged && sim.locRibsConsistent();
    return allRenderings(report);
}

} // namespace

TEST(EcmpDeterminism, CleanConvergenceMatrixIsByteIdentical)
{
    for (size_t max_paths : {size_t(1), size_t(4)}) {
        std::string baseline = runClos(1, max_paths, false);
        EXPECT_FALSE(baseline.empty());
        for (size_t jobs : kJobCounts) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                         " max-paths=" + std::to_string(max_paths));
            EXPECT_EQ(runClos(jobs, max_paths, false), baseline);
        }
    }
}

TEST(EcmpDeterminism, MidWindowFaultMatrixIsByteIdentical)
{
    for (size_t max_paths : {size_t(1), size_t(4)}) {
        std::string baseline = runClos(1, max_paths, true);
        EXPECT_FALSE(baseline.empty());
        for (size_t jobs : kJobCounts) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                         " max-paths=" + std::to_string(max_paths));
            EXPECT_EQ(runClos(jobs, max_paths, true), baseline);
        }
    }
}

TEST(EcmpDeterminism, MaxPathsOneMatchesDefaultEngine)
{
    // maximum-paths 1 must be indistinguishable from a config that
    // never mentions the knob: every route group is the best path
    // alone, so there is nothing else to install.
    topo::TopologySimConfig defaults;
    topo::TopologySim sim(smallClos(), defaults);
    for (size_t tor : tors())
        sim.originate(tor, topo::scenarioPrefix(tor, 0), 0);
    ASSERT_TRUE(sim.runToConvergence(sim::nsFromSec(600.0)));
    topo::ConvergenceReport report = sim.report("ecmp", "clos");
    report.converged = sim.locRibsConsistent();
    EXPECT_EQ(runClos(1, 1, false), allRenderings(report));
}

TEST(EcmpDeterminism, MultipathGroupsFormOnTheFabric)
{
    auto countGroups = [](size_t max_paths) {
        topo::TopologySimConfig config;
        config.maxPaths = max_paths;
        topo::TopologySim sim(smallClos(), config);
        for (size_t tor : tors())
            sim.originate(tor, topo::scenarioPrefix(tor, 0), 0);
        EXPECT_TRUE(sim.runToConvergence(sim::nsFromSec(600.0)));
        size_t groups = 0;
        for (size_t node = 0; node < 10; ++node) {
            sim.speaker(node).locRib().forEach(
                [&](const net::Prefix &,
                    const bgp::LocRib::Entry &entry) {
                    if (!entry.multipath.empty())
                        ++groups;
                });
        }
        return groups;
    };
    // Single-path mode never populates a group; with maximum-paths 4
    // the tor -> remote-pod routes fan across both aggs and spines.
    EXPECT_EQ(countGroups(1), 0u);
    EXPECT_GT(countGroups(4), 0u);
}

TEST(EcmpDeterminism, MultipathMembersAreRealAlternatives)
{
    topo::TopologySimConfig config;
    config.maxPaths = 4;
    topo::TopologySim sim(smallClos(), config);
    for (size_t tor : tors())
        sim.originate(tor, topo::scenarioPrefix(tor, 0), 0);
    ASSERT_TRUE(sim.runToConvergence(sim::nsFromSec(600.0)));
    ASSERT_TRUE(sim.locRibsConsistent());

    for (size_t node = 0; node < 10; ++node) {
        sim.speaker(node).locRib().forEach(
            [&](const net::Prefix &,
                const bgp::LocRib::Entry &entry) {
                for (const bgp::Candidate &member : entry.multipath) {
                    // Group members come from distinct peers and are
                    // never the best path itself.
                    EXPECT_NE(member.peer, entry.best.peer);
                    // Equal AS-path length is the ECMP entry ticket.
                    EXPECT_EQ(member.attributes->asPath.pathLength(),
                              entry.best.attributes->asPath
                                  .pathLength());
                }
            });
    }
}
