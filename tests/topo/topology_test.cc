/**
 * @file
 * Tests for the topology graph model and its generators.
 */

#include <gtest/gtest.h>

#include "net/logging.hh"
#include "topo/topology.hh"

using namespace bgpbench;
using topo::GenOptions;
using topo::Topology;

TEST(Topology, LineShape)
{
    Topology topo = Topology::line(4);
    EXPECT_EQ(topo.nodeCount(), 4u);
    EXPECT_EQ(topo.linkCount(), 3u);
    EXPECT_TRUE(topo.connected());
    EXPECT_EQ(topo.neighborsOf(0).size(), 1u);
    EXPECT_EQ(topo.neighborsOf(1).size(), 2u);
    // One AS per node by default, so every link is eBGP.
    for (size_t l = 0; l < topo.linkCount(); ++l)
        EXPECT_FALSE(topo.isIbgp(l));
}

TEST(Topology, RingShape)
{
    Topology topo = Topology::ring(5);
    EXPECT_EQ(topo.nodeCount(), 5u);
    EXPECT_EQ(topo.linkCount(), 5u);
    EXPECT_TRUE(topo.connected());
    for (size_t i = 0; i < 5; ++i)
        EXPECT_EQ(topo.neighborsOf(i).size(), 2u);
}

TEST(Topology, StarShape)
{
    Topology topo = Topology::star(6);
    EXPECT_EQ(topo.linkCount(), 5u);
    EXPECT_EQ(topo.neighborsOf(0).size(), 5u);
    for (size_t i = 1; i < 6; ++i)
        EXPECT_EQ(topo.neighborsOf(i).size(), 1u);
}

TEST(Topology, FullMeshShape)
{
    Topology topo = Topology::fullMesh(5);
    EXPECT_EQ(topo.linkCount(), 10u);
    EXPECT_TRUE(topo.connected());
    for (size_t i = 0; i < 5; ++i)
        EXPECT_EQ(topo.neighborsOf(i).size(), 4u);
}

TEST(Topology, DefaultNodeNumbering)
{
    GenOptions opts;
    opts.firstAs = 500;
    Topology topo = Topology::line(3, opts);
    EXPECT_EQ(topo.node(0).asn, 500);
    EXPECT_EQ(topo.node(2).asn, 502);
    EXPECT_EQ(topo.node(1).name, "r1");
    EXPECT_EQ(topo.node(1).routerId, 2u);
    EXPECT_NE(topo.node(0).address, topo.node(1).address);
}

TEST(Topology, IbgpDerivedFromAsNumbers)
{
    Topology topo = Topology::line(3);
    topo.node(1).asn = topo.node(0).asn;
    EXPECT_TRUE(topo.isIbgp(0));
    EXPECT_FALSE(topo.isIbgp(1));
}

TEST(Topology, BarabasiAlbertProperties)
{
    Topology topo = Topology::barabasiAlbert(30, 2, 7);
    EXPECT_EQ(topo.nodeCount(), 30u);
    // A 3-node seed line plus 2 links per further node.
    EXPECT_EQ(topo.linkCount(), 2u + 27u * 2u);
    EXPECT_TRUE(topo.connected());
    for (size_t i = 0; i < 30; ++i)
        EXPECT_GE(topo.neighborsOf(i).size(), 1u);
}

TEST(Topology, BarabasiAlbertDeterministicPerSeed)
{
    Topology a = Topology::barabasiAlbert(25, 2, 7);
    Topology b = Topology::barabasiAlbert(25, 2, 7);
    ASSERT_EQ(a.linkCount(), b.linkCount());
    for (size_t l = 0; l < a.linkCount(); ++l) {
        EXPECT_EQ(a.link(l).a.node, b.link(l).a.node);
        EXPECT_EQ(a.link(l).b.node, b.link(l).b.node);
    }

    Topology c = Topology::barabasiAlbert(25, 2, 8);
    bool differs = false;
    for (size_t l = 0; l < a.linkCount(); ++l) {
        differs = differs || a.link(l).a.node != c.link(l).a.node ||
                  a.link(l).b.node != c.link(l).b.node;
    }
    EXPECT_TRUE(differs);
}

TEST(Topology, ValidationRejectsBadInput)
{
    Topology topo = Topology::line(3);
    EXPECT_THROW(topo.addLink(0, 0, 0, 0.0), FatalError);
    EXPECT_THROW(topo.addLink(0, 9, 0, 0.0), FatalError);
    EXPECT_THROW(topo.node(9), FatalError);
    EXPECT_THROW(topo.link(9), FatalError);

    topo::NodeConfig bad;
    bad.routerId = 1;
    EXPECT_THROW(topo.addNode(bad), FatalError); // AS 0

    EXPECT_THROW(Topology::line(1), FatalError);
    EXPECT_THROW(Topology::ring(2), FatalError);
    EXPECT_THROW(Topology::barabasiAlbert(2, 2, 1), FatalError);
    EXPECT_THROW(Topology::barabasiAlbert(9, 0, 1), FatalError);
}

TEST(Topology, ClosShapeAndLinkStructure)
{
    topo::ClosOptions opts;
    opts.pods = 2;
    opts.torsPerPod = 3;
    opts.aggsPerPod = 2;
    opts.spines = 4;
    Topology topo = Topology::clos(opts);

    // 4 spines + 2 pods x (2 aggs + 3 tors).
    EXPECT_EQ(topo.nodeCount(), 14u);
    // Per pod: every tor to every agg; every agg to every spine.
    EXPECT_EQ(topo.linkCount(), 2u * (3 * 2) + 2u * (2 * 4));
    EXPECT_TRUE(topo.connected());

    // Spines come first, then pod by pod: aggs before tors.
    EXPECT_EQ(topo.node(0).name, "spine0");
    EXPECT_EQ(topo.node(3).name, "spine3");
    EXPECT_EQ(topo.node(4).name, "p0-agg0");
    EXPECT_EQ(topo.node(6).name, "p0-tor0");
    EXPECT_EQ(topo.node(9).name, "p1-agg0");
    EXPECT_EQ(topo.node(13).name, "p1-tor2");

    // Every link crosses tiers, so the whole fabric is eBGP.
    for (size_t l = 0; l < topo.linkCount(); ++l)
        EXPECT_FALSE(topo.isIbgp(l));
}

TEST(Topology, ClosAsNumberingFollowsRfc7938)
{
    topo::ClosOptions opts;
    opts.pods = 2;
    opts.torsPerPod = 2;
    opts.aggsPerPod = 2;
    opts.spines = 2;
    opts.base.firstAs = 64600;
    Topology topo = Topology::clos(opts);

    // All spines share one AS.
    EXPECT_EQ(topo.node(0).asn, 64600);
    EXPECT_EQ(topo.node(1).asn, 64600);
    // Each pod's aggs share the per-pod AS.
    EXPECT_EQ(topo.node(2).asn, 64601); // p0-agg0
    EXPECT_EQ(topo.node(3).asn, 64601); // p0-agg1
    EXPECT_EQ(topo.node(6).asn, 64602); // p1-agg0
    EXPECT_EQ(topo.node(7).asn, 64602); // p1-agg1
    // Every tor gets its own AS, numbered after the pod ASes.
    EXPECT_EQ(topo.node(4).asn, 64603); // p0-tor0
    EXPECT_EQ(topo.node(5).asn, 64604); // p0-tor1
    EXPECT_EQ(topo.node(8).asn, 64605); // p1-tor0
    EXPECT_EQ(topo.node(9).asn, 64606); // p1-tor1

    // Router ids and addresses stay unique across the fabric.
    for (size_t i = 0; i < topo.nodeCount(); ++i)
        for (size_t j = i + 1; j < topo.nodeCount(); ++j) {
            EXPECT_NE(topo.node(i).routerId, topo.node(j).routerId);
            EXPECT_NE(topo.node(i).address, topo.node(j).address);
        }
}

TEST(Topology, ClosFromSizeSpendsTheNodeBudget)
{
    Topology topo = Topology::closFromSize(16);
    EXPECT_EQ(topo.nodeCount(), 16u);
    EXPECT_TRUE(topo.connected());
    // Fixed 2-spine / 2x2-agg frame; the remainder becomes tors.
    EXPECT_EQ(topo.node(0).name, "spine0");
    size_t tors = 0;
    for (size_t i = 0; i < topo.nodeCount(); ++i)
        if (topo.node(i).name.find("tor") != std::string::npos)
            ++tors;
    EXPECT_EQ(tors, 10u);
}

TEST(Topology, ClosRejectsDegenerateTiers)
{
    topo::ClosOptions no_spines;
    no_spines.spines = 0;
    EXPECT_THROW(Topology::clos(no_spines), FatalError);
    topo::ClosOptions no_pods;
    no_pods.pods = 0;
    EXPECT_THROW(Topology::clos(no_pods), FatalError);
    EXPECT_THROW(Topology::closFromSize(7), FatalError);
}
