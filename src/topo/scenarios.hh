/**
 * @file
 * Scenario building blocks shared by ScenarioRunner
 * (scenario_spec.hh), the benches, the network example and the
 * tests: the deterministic per-node prefix grid every scenario
 * originates, and the four-AS policy demonstration network.
 */

#ifndef BGPBENCH_TOPO_SCENARIOS_HH
#define BGPBENCH_TOPO_SCENARIOS_HH

#include "topo/topology_sim.hh"

namespace bgpbench::topo
{

/**
 * The deterministic prefix originated by @p node as its @p index-th
 * route: (100 + index).(node / 256).(node % 256).0/24. Valid for
 * index < 156 and node < 65536.
 */
net::Prefix scenarioPrefix(size_t node, size_t index);

namespace demo
{

/**
 * The four-AS policy demonstration network of the bgp_network
 * example: a customer dual-homed to two ISPs that both reach a
 * backbone.
 *
 *     customer (AS100) ---- isp-a (AS200) ---- backbone (AS400)
 *            \---- isp-b (AS300) ----/
 *
 * Policies: the customer prefers isp-a via LOCAL_PREF 200; isp-b
 * prepends twice toward the backbone (making itself a path of last
 * resort); the backbone filters martian prefixes from both ISPs.
 * The backbone originates two service prefixes, the customer its own
 * block, and isp-b a martian that the filter must stop.
 */
struct FourAsNetwork
{
    Topology topology;
    size_t customer = 0;
    size_t ispA = 1;
    size_t ispB = 2;
    size_t backbone = 3;
    /** The customer/isp-a link whose failure forces the backup path. */
    size_t customerIspALink = 0;
    net::Prefix customerPrefix;
    net::Prefix backbonePrefix;
    net::Prefix backboneSecondaryPrefix;
    net::Prefix martianPrefix;
};

FourAsNetwork fourAsPolicyTopology();

/** Originate the demo's prefixes on @p sim at time @p at. */
void originateDemoRoutes(TopologySim &sim, const FourAsNetwork &net,
                         sim::SimTime at);

} // namespace demo

} // namespace bgpbench::topo

#endif // BGPBENCH_TOPO_SCENARIOS_HH
