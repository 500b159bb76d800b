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

#include "core/benchmark_runner.hh"
#include "stats/report.hh"
#include "workload/churn.hh"

using namespace bgpbench;

namespace
{

struct StormResult
{
    /** False when the run hit the time cap. */
    bool completed = false;
    double durationSec = 0.0;
    uint64_t fibWrites = 0;
    uint64_t suppressed = 0;
    size_t tableSize = 0;
};

StormResult
runStorm(bool damping)
{
    core::BenchmarkConfig config;
    config.dampingEnabled = damping;
    config.simTimeLimit = sim::nsFromSec(7200.0);
    core::Testbed tb(router::pentium3Profile(), config);
    router::RouterSystem &router = tb.router();
    if (!tb.establish(tb.speaker1()))
        return {};

    // Install a 800-prefix table, then hammer 10% of it with a
    // 3000-transaction flap storm.
    workload::RouteSetConfig rsc;
    rsc.count = 800;
    auto routes = workload::generateRouteSet(rsc);
    workload::StreamConfig sc;
    sc.speakerAs = 65001;
    sc.nextHop = net::Ipv4Address(10, 0, 1, 2);
    sc.prefixesPerPacket = 25;

    core::PhaseResult install;
    if (!tb.inject(tb.speaker1(),
                   workload::buildAnnouncementStream(routes, sc),
                   install))
        return {};

    uint64_t fib_before = router.controlPlane().fibChangesApplied;
    workload::ChurnConfig cc;
    cc.stream = sc;
    cc.events = 3000;
    cc.flappingFraction = 0.1;
    cc.withdrawFraction = 0.45;
    core::PhaseResult storm;
    if (!tb.inject(tb.speaker1(), buildChurnStream(routes, cc), storm))
        return {};

    StormResult result;
    result.completed = true;
    result.durationSec = storm.durationSec;
    result.fibWrites =
        router.controlPlane().fibChangesApplied - fib_before;
    result.suppressed =
        router.speaker().counters().announcementsSuppressed;
    result.tableSize = router.speaker().locRib().size();
    return result;
}

/** The table row for one storm; TIMEOUT cells if it did not finish. */
std::vector<std::string>
row(const char *damping, const StormResult &storm)
{
    if (!storm.completed)
        return {damping, "TIMEOUT", "TIMEOUT", "TIMEOUT", "TIMEOUT"};
    return {damping, stats::formatDouble(storm.durationSec, 1),
            std::to_string(storm.fibWrites),
            std::to_string(storm.suppressed),
            std::to_string(storm.tableSize)};
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
    table.addRow(row("off", off));
    table.addRow(row("on", on));
    table.print(std::cout);
    if (!off.completed || !on.completed)
        return 1;

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
