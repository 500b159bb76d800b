/**
 * @file
 * bgpbench — command-line front end to the benchmark library.
 *
 *   bgpbench list
 *       Show the available router systems and benchmark scenarios.
 *
 *   bgpbench run --system Xeon --scenario 2 [options]
 *       Run one scenario on one system and print the result.
 *
 *   bgpbench sweep --system PentiumIII --scenario 1 [options]
 *       Sweep cross-traffic from 0 to the system's bus limit.
 *
 *   bgpbench table3 [options]
 *       All eight scenarios on all four systems (Table III).
 *
 *   bgpbench topo --shape ring --nodes 12 [--fault link] [options]
 *       Wire N full speakers into a topology and measure
 *       network-wide convergence (optionally after a fault; the
 *       flap fault runs a link-flap train and adds the stability
 *       report).
 *
 *   bgpbench serve --shape ring --nodes 12 [options]
 *       The topo announce scenario with the read side attached: one
 *       node publishes epoch snapshots of its Loc-RIB and reader
 *       threads serve a synthetic query stream against them, both
 *       while the network converges and flat out afterwards.
 *
 *   bgpbench config
 *       Show the effective runtime configuration and where each
 *       value came from (default / environment / command line).
 *
 * Common options:
 *   --prefixes N        routing-table size per run (default 2000)
 *   --seed N            workload seed (default 42)
 *   --cross-mbps X      offered forwarding load (run only)
 *   --steps N           sweep points including 0 (sweep only, df. 5)
 *   --damping           enable RFC 2439 flap damping on the router
 *   --mrai-ms N         per-session MRAI batching (topo, 0 = off)
 *   --csv               machine-readable CSV instead of tables
 *   --stats[=FMT]       run metrics to stderr (text, csv, or json)
 *   --trace FILE        Chrome trace_event JSON of the run
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>

#include "bgp/attr_intern.hh"
#include "core/benchmark_runner.hh"
#include "core/paper_data.hh"
#include "core/runtime_config.hh"
#include "net/logging.hh"
#include "net/wire_segment.hh"
#include "obs/export.hh"
#include "obs/process_memory.hh"
#include "obs/observability.hh"
#include "serve/serve_runner.hh"
#include "stats/json.hh"
#include "stats/report.hh"
#include "topo/scenario_spec.hh"
#include "topo/scenarios.hh"

using namespace bgpbench;

namespace
{

struct CliOptions
{
    std::string command;
    std::string system = "Xeon";
    int scenario = 1;
    size_t prefixes = 2000;
    uint64_t seed = 42;
    double crossMbps = 0.0;
    int steps = 5;
    bool damping = false;
    /** Per-session MRAI in ms for topo runs (0 = off). */
    uint64_t mraiMs = 0;
    bool csv = false;
    bool json = false;
    /** --stats: export the run's metric registry to stderr. */
    bool stats = false;
    obs::ExportFormat statsFormat = obs::ExportFormat::Text;
    /** --trace: Chrome trace_event JSON destination ("" = off). */
    std::string tracePath;
    /** Run sinks, attached by main() when --stats/--trace ask. */
    obs::RunObservability *obs = nullptr;
    /** topo command. */
    std::string shape = "ring";
    size_t nodes = 12;
    std::string fault = "none";
    size_t faultLink = 0;
    size_t faultNode = 0;
    uint64_t downtimeMs = 50;
    /** --fault flap: link-flap train shape. */
    uint64_t flapPeriodMs = 200;
    size_t flapCycles = 5;
    size_t prefixesPerNode = 1;
    /** Worker threads for topo runs: 1 sequential, 0 = auto. */
    size_t jobs = 1;
    /** BGP maximum-paths (ECMP width) for topo/serve runs. */
    size_t maxPaths = 1;
    /** serve command (defaults resolved from RuntimeConfig). */
    size_t serveReaders = 4;
    uint64_t serveQueries = 200000;
    uint64_t snapshotEvery = 0;
    std::string queryMix;
};

[[noreturn]] void
usage(int code)
{
    std::cerr <<
        "usage: bgpbench <command> [options]\n"
        "\n"
        "commands:\n"
        "  list                     systems and scenarios\n"
        "  run                      one scenario on one system\n"
        "  sweep                    cross-traffic sweep\n"
        "  table3                   full Table III reproduction\n"
        "  topo                     network-wide convergence\n"
        "  serve                    convergence + read-side RIB "
        "queries\n"
        "  config                   effective runtime configuration\n"
        "\n"
        "options:\n"
        "  --system NAME            PentiumIII | Xeon | IXP2400 | "
        "Cisco\n"
        "  --scenario N             1..8 (see 'bgpbench list')\n"
        "  --prefixes N             routing-table size (default "
        "2000)\n"
        "  --seed N                 workload seed (default 42)\n"
        "  --cross-mbps X           forwarding load during the run\n"
        "  --steps N                sweep points (default 5)\n"
        "  --damping                enable RFC 2439 flap damping\n"
        "  --mrai-ms N              per-session MRAI batching for "
        "topo runs (default 0 = off)\n"
        "  --csv                    CSV output\n"
        "  --stats[=FMT]            print run metrics to stderr "
        "(text | csv | json)\n"
        "  --trace FILE             write a Chrome trace_event JSON "
        "of the run\n"
        "\n"
        "topo options:\n"
        "  --shape NAME             line | ring | star | mesh | "
        "random | clos\n"
        "  --nodes N                router count (default 12)\n"
        "  --fault KIND             none | link | reboot | flap\n"
        "  --link N                 link index to fail/flap "
        "(default 0)\n"
        "  --node N                 router index to reboot "
        "(default 0)\n"
        "  --downtime-ms N          reboot downtime (default 50)\n"
        "  --flap-period-ms N       flap-train cycle period "
        "(default 200)\n"
        "  --flap-cycles N          flap-train down/up cycles "
        "(default 5)\n"
        "  --prefixes-per-node N    originated per router "
        "(default 1)\n"
        "  --jobs N                 worker threads (1 = sequential, "
        "0 = auto); reports are identical for every value\n"
        "  --max-paths N            BGP maximum-paths (ECMP width, "
        "default 1)\n"
        "  --json                   JSON report output\n"
        "\n"
        "serve options (plus the topo topology options):\n"
        "  --readers N              reader threads (default 4)\n"
        "  --queries N              throughput-phase queries per "
        "reader (default 200000)\n"
        "  --query-mix L:B:S:P      lookup:best-path:scan:peer-stats "
        "weights (default 88:10:1.5:0.5)\n"
        "  --snapshot-every N       publish after N decisions "
        "(default: every flush)\n";
    std::exit(code);
}

/**
 * Parse all of @p text as a non-negative number of type T for
 * @p option: no sign, no surrounding garbage, no overflow of T, and a
 * finite value for floating-point options. Anything else is a usage
 * error: one error line and exit status 2.
 */
template <typename T>
T
parseNumber(const std::string &option, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, value);
    bool ok = ec == std::errc() && stop == end && text[0] != '-';
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok) {
        std::cerr << "error: " << option
                  << " expects a non-negative number, got '" << text
                  << "'\n";
        std::exit(2);
    }
    return value;
}

CliOptions
parseArgs(int argc, char **argv, core::RuntimeConfig &runtime)
{
    if (argc < 2)
        usage(2);

    CliOptions options;
    options.command = argv[1];

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                usage(2);
            }
            return argv[++i];
        };

        if (arg == "--system") {
            options.system = value();
        } else if (arg == "--scenario") {
            options.scenario = parseNumber<int>(arg, value());
        } else if (arg == "--prefixes") {
            options.prefixes = parseNumber<size_t>(arg, value());
        } else if (arg == "--seed") {
            options.seed = parseNumber<uint64_t>(arg, value());
        } else if (arg == "--cross-mbps") {
            options.crossMbps = parseNumber<double>(arg, value());
        } else if (arg == "--steps") {
            options.steps = parseNumber<int>(arg, value());
        } else if (arg == "--damping") {
            runtime.overrideDamping(true);
        } else if (arg == "--mrai-ms") {
            runtime.overrideMraiMs(parseNumber<uint64_t>(arg, value()));
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg == "--stats") {
            options.stats = true;
        } else if (arg.rfind("--stats=", 0) == 0) {
            options.stats = true;
            if (!obs::parseExportFormat(arg.substr(8),
                                        options.statsFormat)) {
                std::cerr << "unknown stats format: " << arg.substr(8)
                          << "\n";
                usage(2);
            }
        } else if (arg == "--trace") {
            options.tracePath = value();
        } else if (arg == "--shape") {
            options.shape = value();
        } else if (arg == "--nodes") {
            options.nodes = parseNumber<size_t>(arg, value());
        } else if (arg == "--fault") {
            options.fault = value();
        } else if (arg == "--link") {
            options.faultLink = parseNumber<size_t>(arg, value());
        } else if (arg == "--node") {
            options.faultNode = parseNumber<size_t>(arg, value());
        } else if (arg == "--downtime-ms") {
            options.downtimeMs = parseNumber<uint64_t>(arg, value());
        } else if (arg == "--flap-period-ms") {
            options.flapPeriodMs = parseNumber<uint64_t>(arg, value());
            if (options.flapPeriodMs == 0) {
                std::cerr << "--flap-period-ms needs a value >= 1\n";
                usage(2);
            }
        } else if (arg == "--flap-cycles") {
            options.flapCycles = parseNumber<size_t>(arg, value());
        } else if (arg == "--prefixes-per-node") {
            options.prefixesPerNode = parseNumber<size_t>(arg, value());
        } else if (arg == "--jobs") {
            runtime.overrideJobs(parseNumber<size_t>(arg, value()));
        } else if (arg == "--max-paths") {
            size_t paths = parseNumber<size_t>(arg, value());
            if (paths == 0) {
                std::cerr << "--max-paths needs a value >= 1\n";
                usage(2);
            }
            runtime.overrideMaxPaths(paths);
        } else if (arg == "--readers") {
            runtime.overrideServeReaders(parseNumber<size_t>(arg, value()));
        } else if (arg == "--queries") {
            options.serveQueries = parseNumber<uint64_t>(arg, value());
        } else if (arg == "--query-mix") {
            std::string mix = value();
            workload::QueryMix parsed;
            if (!workload::QueryMix::parse(mix, parsed)) {
                std::cerr << "malformed query mix: " << mix << "\n";
                usage(2);
            }
            runtime.overrideQueryMix(mix);
        } else if (arg == "--snapshot-every") {
            runtime.overrideSnapshotEvery(
                parseNumber<uint64_t>(arg, value()));
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage(2);
        }
    }
    // env < CLI: BGPBENCH_JOBS seeds the default, --jobs overrides
    // (likewise for the serve knobs).
    options.jobs = runtime.jobs();
    options.maxPaths = runtime.maxPaths();
    options.damping = runtime.damping();
    options.mraiMs = runtime.mraiMs();
    options.serveReaders = runtime.serveReaders();
    options.snapshotEvery = runtime.snapshotEvery();
    options.queryMix = runtime.queryMix();
    return options;
}

core::BenchmarkConfig
benchConfig(const CliOptions &options)
{
    core::BenchmarkConfig config;
    config.prefixCount = options.prefixes;
    config.seed = options.seed;
    config.crossTrafficMbps = options.crossMbps;
    config.dampingEnabled = options.damping;
    config.obs = options.obs;
    return config;
}

core::BenchmarkResult
runOnce(const CliOptions &options, const router::SystemProfile &sys,
        int scenario_number, double cross_mbps)
{
    CliOptions local = options;
    local.crossMbps = cross_mbps;
    core::BenchmarkConfig config = benchConfig(local);
    core::BenchmarkRunner runner(sys, config);
    return runner.run(core::scenarioByNumber(scenario_number));
}

int
cmdList()
{
    std::cout << "systems (paper Table II):\n";
    for (const auto &profile : router::allSystemProfiles()) {
        std::cout << "  " << profile.name << "  ("
                  << profile.cpu.cores << " core(s) x "
                  << profile.cpu.threadsPerCore << " thread(s), "
                  << stats::formatDouble(
                         profile.cpu.cyclesPerSecond / 1e6, 0)
                  << " MHz, forwarding limit "
                  << stats::formatDouble(profile.busLimitMbps, 0)
                  << " Mbps)\n";
    }
    std::cout << "\nscenarios (paper Table I):\n";
    for (const auto &scenario : core::allScenarios()) {
        std::cout << "  " << scenario.number << ": "
                  << scenario.description() << "\n";
    }
    return 0;
}

int
cmdRun(const CliOptions &options)
{
    auto profile = router::profileByName(options.system);
    auto scenario = core::scenarioByNumber(options.scenario);
    auto result =
        runOnce(options, profile, options.scenario, options.crossMbps);

    if (result.timedOut) {
        std::cerr << "run exceeded the simulated-time limit\n";
        return 1;
    }

    if (options.csv) {
        std::cout << "system,scenario,prefixes,cross_mbps,tps,"
                     "phase1_s,phase2_s,phase3_s,fwd_pkts,drops\n";
        std::cout << profile.name << ',' << scenario.number << ','
                  << options.prefixes << ',' << options.crossMbps
                  << ',' << result.measuredTps << ','
                  << result.phase1.durationSec << ','
                  << (result.phase2 ? result.phase2->durationSec : 0.0)
                  << ','
                  << (result.phase3 ? result.phase3->durationSec : 0.0)
                  << ',' << result.dataPlane.forwardedPackets << ','
                  << result.dataPlane.queueDrops +
                         result.dataPlane.busDrops
                  << "\n";
        return 0;
    }

    std::cout << scenario.name() << " on " << profile.name << ": "
              << stats::formatDouble(result.measuredTps, 1)
              << " transactions/s";
    int paper_idx = core::paper::systemIndexByName(profile.name);
    if (paper_idx >= 0 && options.crossMbps == 0.0) {
        std::cout << "  (paper: "
                  << core::paper::table3Tps[size_t(
                         scenario.number - 1)][size_t(paper_idx)]
                  << ")";
    }
    std::cout << "\n";
    return 0;
}

int
cmdSweep(const CliOptions &options)
{
    auto profile = router::profileByName(options.system);
    int steps = std::max(2, options.steps);

    if (options.csv)
        std::cout << "system,scenario,cross_mbps,tps\n";

    stats::TextTable table({"cross-traffic (Mbps)", "tps"});
    for (int step = 0; step < steps; ++step) {
        double mbps = profile.busLimitMbps * double(step) /
                      double(steps - 1);
        auto result =
            runOnce(options, profile, options.scenario, mbps);
        if (options.csv) {
            std::cout << profile.name << ',' << options.scenario
                      << ',' << mbps << ',' << result.measuredTps
                      << "\n";
        } else {
            table.addRow({stats::formatDouble(mbps, 0),
                          result.timedOut
                              ? "TIMEOUT"
                              : stats::formatDouble(
                                    result.measuredTps, 1)});
        }
    }
    if (!options.csv) {
        std::cout << "Scenario " << options.scenario << " on "
                  << profile.name << ", " << options.prefixes
                  << " prefixes:\n";
        table.print(std::cout);
    }
    return 0;
}

int
cmdTable3(const CliOptions &options)
{
    if (options.csv)
        std::cout << "system,scenario,tps,paper_tps\n";
    stats::TextTable table(
        {"Scenario", "System", "tps", "paper tps"});

    for (const auto &profile : router::allSystemProfiles()) {
        for (const auto &scenario : core::allScenarios()) {
            auto result = runOnce(options, profile, scenario.number,
                                  0.0);
            int idx = core::paper::systemIndexByName(profile.name);
            double paper =
                idx >= 0 ? core::paper::table3Tps[size_t(
                               scenario.number - 1)][size_t(idx)]
                         : 0.0;
            if (options.csv) {
                std::cout << profile.name << ',' << scenario.number
                          << ',' << result.measuredTps << ',' << paper
                          << "\n";
            } else {
                table.addRow(
                    {scenario.name(), profile.name,
                     stats::formatDouble(result.measuredTps, 1),
                     stats::formatDouble(paper, 1)});
            }
        }
    }
    if (!options.csv)
        table.print(std::cout);
    return 0;
}

topo::Topology
topoByShape(const CliOptions &options)
{
    if (options.shape == "line")
        return topo::Topology::line(options.nodes);
    if (options.shape == "ring")
        return topo::Topology::ring(options.nodes);
    if (options.shape == "star")
        return topo::Topology::star(options.nodes);
    if (options.shape == "mesh")
        return topo::Topology::fullMesh(options.nodes);
    if (options.shape == "random") {
        return topo::Topology::barabasiAlbert(options.nodes, 2,
                                              options.seed);
    }
    if (options.shape == "clos")
        return topo::Topology::closFromSize(options.nodes);
    std::cerr << "unknown shape: " << options.shape << "\n";
    usage(2);
}

int
cmdTopo(const CliOptions &options)
{
    topo::ScenarioSpec spec;
    spec.shape = options.shape;
    spec.topology = topoByShape(options);
    spec.prefixesPerNode = options.prefixesPerNode;
    spec.simConfig.jobs = options.jobs;
    spec.simConfig.maxPaths = options.maxPaths;
    if (options.damping)
        spec.simConfig.damping = topo::churnDampingConfig();
    spec.simConfig.mraiNs = sim::nsFromMs(options.mraiMs);
    spec.simConfig.obs = options.obs;

    if (options.fault == "none") {
        spec.name = "announce";
    } else if (options.fault == "link") {
        spec.name = "link-failure";
        spec.faults.linkDown(options.faultLink, 0);
    } else if (options.fault == "reboot") {
        spec.name = "router-reboot";
        spec.faults.routerRestart(options.faultNode, 0,
                                  sim::nsFromMs(options.downtimeMs));
    } else if (options.fault == "flap") {
        spec.name = "flap-train";
        spec.faults.linkFlapTrain(options.faultLink, 0,
                                  sim::nsFromMs(options.flapPeriodMs),
                                  50, options.flapCycles, 0,
                                  options.seed);
    } else {
        std::cerr << "unknown fault: " << options.fault << "\n";
        usage(2);
    }

    topo::ScenarioResult result =
        topo::ScenarioRunner(std::move(spec)).run();
    const topo::ConvergenceReport &report = result.convergence;

    // Churn scenarios come with the stability report; the legacy
    // faults keep their exact pre-redesign output bytes.
    bool churn = options.fault == "flap";
    if (options.json) {
        std::cout << report.toJson() << "\n";
        if (churn)
            std::cout << result.stability.toJson() << "\n";
    } else if (options.csv) {
        report.printCsv(std::cout, true);
    } else {
        report.printText(std::cout);
        if (churn) {
            std::cout << "\n";
            result.stability.printText(std::cout);
        }
    }

    if (options.jobs != 1 && !options.csv && !options.json) {
        size_t jobs = options.jobs;
        if (jobs == 0) {
            jobs = std::max<size_t>(
                1, std::thread::hardware_concurrency());
        }
        topo::Topology shape = topoByShape(options);
        topo::Partition part = topo::partitionTopology(
            shape, topo::shardTarget(shape.nodeCount(), jobs));
        std::cerr << "parallel: " << part.shardCount << " shard(s), "
                  << part.cutLinks << " cut link(s) ("
                  << stats::formatDouble(part.edgeCutRatio * 100.0, 1)
                  << "% of links)\n";
    }
    return report.converged ? 0 : 1;
}

void
printServeReportText(std::ostream &os, const std::string &label,
                     const serve::ServeReport &report)
{
    os << label << ": " << report.queries << " queries in "
       << stats::formatDouble(double(report.wallNs) / 1e6, 2)
       << " ms (" << stats::formatDouble(report.queriesPerSec / 1e6, 2)
       << " M queries/s), epochs " << report.firstEpoch << ".."
       << report.lastEpoch << "\n";
    stats::TextTable table(
        {"class", "queries", "hits", "p50 ns", "p99 ns", "max ns"});
    for (const auto &cls : report.classes) {
        table.addRow({workload::queryKindName(cls.kind),
                      std::to_string(cls.queries),
                      std::to_string(cls.hits),
                      std::to_string(cls.latencyNs.p50),
                      std::to_string(cls.latencyNs.p99),
                      std::to_string(cls.latencyNs.max)});
    }
    table.print(os);
}

int
cmdServe(const CliOptions &options)
{
    serve::ServeRunConfig config;
    config.scenario.prefixesPerNode = options.prefixesPerNode;
    config.scenario.simConfig.jobs = options.jobs;
    config.scenario.simConfig.maxPaths = options.maxPaths;
    if (options.damping)
        config.scenario.simConfig.damping = topo::churnDampingConfig();
    config.scenario.simConfig.mraiNs = sim::nsFromMs(options.mraiMs);
    config.scenario.simConfig.obs = options.obs;
    config.snapshotEvery = options.snapshotEvery;
    config.engine.readers = int(options.serveReaders);
    config.engine.queriesPerReader = options.serveQueries;
    config.engine.seed = options.seed;
    if (!workload::QueryMix::parse(options.queryMix,
                                   config.engine.stream.mix)) {
        std::cerr << "malformed query mix: " << options.queryMix
                  << "\n";
        usage(2);
    }

    serve::ServeRunResult result =
        serve::runServeScenario(topoByShape(options), options.shape,
                                config);

    if (options.json) {
        stats::JsonWriter json(std::cout);
        json.beginObject();
        json.field("readers", uint64_t(options.serveReaders));
        json.field("query_mix", config.engine.stream.mix.toString());
        json.field("snapshot_every", options.snapshotEvery);
        json.field("snapshots_published", result.snapshotsPublished);
        json.field("final_epoch", result.finalEpoch);
        json.field("table_size", result.tableSize);
        json.field("converged", result.convergence.converged);
        json.key("concurrent");
        serve::writeServeReportJson(json, result.concurrent);
        json.key("throughput");
        serve::writeServeReportJson(json, result.throughput);
        json.endObject();
        std::cout << "\n";
    } else {
        result.convergence.printText(std::cout);
        std::cout << "\nsnapshots: " << result.snapshotsPublished
                  << " published, final epoch " << result.finalEpoch
                  << ", " << result.tableSize << " routes\n\n";
        printServeReportText(std::cout, "concurrent",
                             result.concurrent);
        std::cout << "\n";
        printServeReportText(std::cout, "throughput",
                             result.throughput);
    }
    return result.convergence.converged ? 0 : 1;
}

/**
 * Metric/trace output after the command ran. Exports go to stderr so
 * the report bytes on stdout stay exactly what they were without
 * --stats; the trace goes to the requested file.
 */
int
emitObservability(const CliOptions &options,
                  obs::RunObservability &observability)
{
    if (options.stats) {
        // The main thread's interner and the process-wide pool; in
        // parallel topology runs worker-thread interners have their
        // own (inaccessible) instances, matching the old flags.
        bgp::AttributeInterner::global().publishStats(
            observability.metrics);
        net::BufferPool::global().publishStats(observability.metrics);
        obs::publishProcessMemory(observability.metrics);
        obs::exportMetrics(std::cerr,
                           observability.metrics.snapshot(),
                           options.statsFormat);
    }
    if (!options.tracePath.empty()) {
        std::ofstream out(options.tracePath,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write trace file: "
                      << options.tracePath << "\n";
            return 1;
        }
        observability.trace.writeChromeTrace(out);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        core::RuntimeConfig runtime =
            core::RuntimeConfig::fromEnvironment();
        CliOptions options = parseArgs(argc, argv, runtime);

        if (options.command == "config") {
            runtime.dump(std::cout);
            return 0;
        }

        // Sinks stay detached unless asked for: commands run the
        // exact same code path either way, and reports are identical.
        obs::RunObservability observability;
        if (options.stats || !options.tracePath.empty())
            options.obs = &observability;

        int rc = 2;
        if (options.command == "list")
            rc = cmdList();
        else if (options.command == "run")
            rc = cmdRun(options);
        else if (options.command == "sweep")
            rc = cmdSweep(options);
        else if (options.command == "table3")
            rc = cmdTable3(options);
        else if (options.command == "topo")
            rc = cmdTopo(options);
        else if (options.command == "serve")
            rc = cmdServe(options);
        else {
            std::cerr << "unknown command: " << options.command
                      << "\n";
            usage(2);
        }
        int obs_rc = emitObservability(options, observability);
        return rc != 0 ? rc : obs_rc;
    } catch (const FatalError &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
}
