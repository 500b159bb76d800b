/**
 * @file
 * Quickstart: run one BGP benchmark scenario on one simulated router
 * and print the paper's transactions-per-second metric.
 *
 *   $ ./examples/quickstart [system] [scenario] [prefixes]
 *   $ ./examples/quickstart Xeon 2 4000
 *
 * Bad input (an unknown system, a scenario outside 1..8, a malformed
 * number, no prefixes) prints one error line and exits with status 2.
 */

#include <iostream>

#include "core/benchmark_runner.hh"
#include "core/runtime_config.hh"
#include "net/logging.hh"
#include "stats/report.hh"

using namespace bgpbench;

namespace
{

int
run(const std::string &system, int scenario_number, size_t prefixes)
{
    // 1. Pick a router platform (PentiumIII, Xeon, IXP2400, Cisco).
    auto profile = router::profileByName(system);

    // 2. Pick a benchmark scenario (Table I of the paper).
    auto scenario = core::scenarioByNumber(scenario_number);

    // 3. Configure the workload and run the three-phase benchmark.
    core::BenchmarkConfig config;
    config.prefixCount = prefixes;

    core::BenchmarkRunner runner(profile, config);
    auto result = runner.run(scenario);

    std::cout << scenario.name() << " (" << scenario.description()
              << ")\non " << profile.name << " with " << prefixes
              << " prefixes:\n\n";
    if (result.timedOut) {
        std::cout << "run exceeded the simulated-time limit\n";
        return 1;
    }

    std::cout << "  phase 1 (table injection):  "
              << stats::formatDouble(result.phase1.durationSec, 2)
              << " s\n";
    if (result.phase2) {
        std::cout << "  phase 2 (propagation):      "
                  << stats::formatDouble(result.phase2->durationSec, 2)
                  << " s\n";
    }
    if (result.phase3) {
        std::cout << "  phase 3 (measured):         "
                  << stats::formatDouble(result.phase3->durationSec, 2)
                  << " s\n";
    }
    std::cout << "\n  => " << stats::formatDouble(result.measuredTps, 1)
              << " transactions per second\n";

    std::cout << "\nRouter state after the run: "
              << runner.router().speaker().locRib().size()
              << " Loc-RIB routes, " << runner.router().fib().size()
              << " FIB entries.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string system = argc > 1 ? argv[1] : "Xeon";
    int scenario_number =
        argc > 2 ? core::parseNumberArg<int>("scenario", argv[2]) : 1;
    size_t prefixes =
        argc > 3 ? core::parseNumberArg<size_t>("prefixes", argv[3])
                 : 2000;
    try {
        return run(system, scenario_number, prefixes);
    } catch (const FatalError &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 2;
    }
}
