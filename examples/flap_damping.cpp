/**
 * @file
 * Route flap damping (RFC 2439) in action.
 *
 * The paper motivates BGP benchmarking with instability: unstable
 * routes multiply the update-processing load it measures. This
 * example subjects a simulated Pentium III router to a flap storm
 * with damping off and on and compares the processing work.
 */

#include <iostream>

#include "core/test_peer.hh"
#include "router/router_system.hh"
#include "stats/report.hh"
#include "workload/churn.hh"

using namespace bgpbench;

namespace
{

struct StormResult
{
    double durationSec = 0.0;
    uint64_t fibWrites = 0;
    uint64_t suppressed = 0;
    size_t tableSize = 0;
};

StormResult
runStorm(bool damping)
{
    sim::Simulator sim;
    router::RouterConfig rc;
    bgp::PeerConfig p1;
    p1.id = 0;
    p1.asn = 65001;
    p1.address = net::Ipv4Address(10, 0, 1, 2);
    rc.peers = {p1};
    rc.damping.enabled = damping;

    router::RouterSystem router(&sim, router::pentium3Profile(), rc);
    core::TestPeer peer(&sim, core::TestPeerConfig{}, &router, 0);
    router.start();
    peer.connect();

    auto wait = [&](auto cond) {
        while (!cond() && sim::toSeconds(sim.now()) < 7200.0)
            sim.runUntil(sim.now() + sim::nsFromMs(1));
    };
    wait([&]() {
        return peer.established() && router.controlDrained();
    });

    // Install a 800-prefix table, then hammer 10% of it with a
    // 3000-transaction flap storm.
    workload::RouteSetConfig rsc;
    rsc.count = 800;
    auto routes = workload::generateRouteSet(rsc);
    workload::StreamConfig sc;
    sc.speakerAs = 65001;
    sc.nextHop = net::Ipv4Address(10, 0, 1, 2);
    sc.prefixesPerPacket = 25;

    peer.enqueueStream(
        workload::buildAnnouncementStream(routes, sc));
    wait([&]() {
        return peer.sendComplete() && router.controlDrained();
    });

    uint64_t fib_before = router.controlPlane().fibChangesApplied;
    workload::ChurnConfig cc;
    cc.stream = sc;
    cc.events = 3000;
    cc.flappingFraction = 0.1;
    cc.withdrawFraction = 0.45;
    auto storm = buildChurnStream(routes, cc);
    size_t transactions = workload::streamTransactions(storm);

    double t0 = sim::toSeconds(sim.now());
    uint64_t processed0 =
        router.speaker().counters().transactionsProcessed();
    peer.enqueueStream(std::move(storm));
    wait([&]() {
        return peer.sendComplete() && router.controlDrained() &&
               router.speaker().counters().transactionsProcessed() >=
                   processed0 + transactions;
    });

    StormResult result;
    result.durationSec = sim::toSeconds(sim.now()) - t0;
    result.fibWrites =
        router.controlPlane().fibChangesApplied - fib_before;
    result.suppressed =
        router.speaker().counters().announcementsSuppressed;
    result.tableSize = router.speaker().locRib().size();
    return result;
}

} // namespace

int
main()
{
    std::cout << "Flap storm on a Pentium III router: 3000 "
                 "announce/withdraw transactions over 80 unstable "
                 "prefixes.\n\n";

    auto off = runStorm(false);
    auto on = runStorm(true);

    stats::TextTable table({"damping", "storm time (s)", "FIB writes",
                            "suppressed", "final table"});
    table.addRow({"off", stats::formatDouble(off.durationSec, 1),
                  std::to_string(off.fibWrites),
                  std::to_string(off.suppressed),
                  std::to_string(off.tableSize)});
    table.addRow({"on", stats::formatDouble(on.durationSec, 1),
                  std::to_string(on.fibWrites),
                  std::to_string(on.suppressed),
                  std::to_string(on.tableSize)});
    table.print(std::cout);

    std::cout << "\nDamping suppresses the persistent flappers after "
                 "their first few cycles: the router stops churning "
                 "its FIB for them and digests the same storm in a "
                 "fraction of the time. The price is reachability — "
                 "suppressed prefixes drop out of the table until "
                 "their penalty decays ("
              << off.tableSize - on.tableSize
              << " prefixes suppressed at storm end here).\n";
    return 0;
}
