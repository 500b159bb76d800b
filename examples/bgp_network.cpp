/**
 * @file
 * A multi-router network on the topo subsystem.
 *
 * Builds the four-AS policy demonstration topology — a customer
 * dual-homed to two ISPs that both feed a backbone:
 *
 *     AS 100 (customer) --- AS 200 (isp-a) --- AS 400 (backbone)
 *                       \-- AS 300 (isp-b) --/
 *
 * The customer prefers isp-a via LOCAL_PREF; isp-b path-prepends on
 * export toward the backbone; the backbone filters martian prefixes
 * from both ISPs. Unlike the benchmark harness, everything here runs
 * at network realism: real wire-format messages, link latency and
 * serialisation, and per-router processing costs, all on the
 * deterministic simulator. The same scenario is asserted in
 * tests/topo/network_example_test.cc.
 */

#include <iostream>

#include "stats/report.hh"
#include "topo/scenarios.hh"

using namespace bgpbench;

int
main()
{
    topo::demo::FourAsNetwork net = topo::demo::fourAsPolicyTopology();
    topo::TopologySim sim(net.topology);
    const sim::SimTime limit = sim::nsFromSec(60.0);

    // Sessions come up at t = 0; run the OPEN exchanges to quiet.
    sim.runToConvergence(limit);
    std::cout << "Topology up: customer(AS100) dual-homed to "
                 "isp-a(AS200) and isp-b(AS300), both feeding "
                 "backbone(AS400).\n";

    // Originate the demo routes and converge.
    sim.tracker().markPhaseStart(sim.now());
    topo::demo::originateDemoRoutes(sim, net, sim.now());
    sim.runToConvergence(limit);
    std::cout << "Announcements converged in "
              << stats::formatDouble(
                     sim.tracker().convergenceTimeSec() * 1e3, 3)
              << " ms of simulated time.\n";

    topo::printLocRib(std::cout, sim.speaker(net.customer),
                      "customer");
    std::cout << "(both backbone prefixes via isp-a: the import "
                 "policy sets LOCAL_PREF 200 on that session; the "
                 "martian arrives from isp-b directly)\n";

    topo::printLocRib(std::cout, sim.speaker(net.backbone),
                      "backbone");
    std::cout << "(the customer prefix arrives via isp-a — isp-b's "
                 "prepending made its path longer — and isp-b's "
                 "martian is filtered on both sessions)\n";

    // Link failure: the customer's link to isp-a drops, in-flight
    // data is lost, and everything fails over to isp-b.
    std::cout << "\n*** link customer <-> isp-a fails ***\n";
    sim.tracker().markPhaseStart(sim.now());
    sim.scheduleLinkDown(net.customerIspALink, sim.now());
    sim.runToConvergence(limit);
    std::cout << "Re-converged in "
              << stats::formatDouble(
                     sim.tracker().convergenceTimeSec() * 1e3, 3)
              << " ms of simulated time.\n";

    topo::printLocRib(std::cout, sim.speaker(net.customer),
                      "customer");
    std::cout << "(everything fails over to isp-b's longer paths)\n";

    topo::printLocRib(std::cout, sim.speaker(net.backbone),
                      "backbone");
    std::cout << "(the customer prefix now carries isp-b's prepended "
                 "path)\n";
    return 0;
}
