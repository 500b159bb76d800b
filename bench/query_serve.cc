/**
 * @file
 * Extension benchmark: serving RIB queries while converging.
 *
 * A deployed route server answers operator and telemetry queries
 * continuously; the operative question is whether the read side taxes
 * the decision process. This bench measures three things on one
 * topology:
 *
 *  1. isolation — host wall time of the announce scenario at three
 *     attachment levels, interleaved repetitions, best-of-N each:
 *     plain (no serving), publisher only (snapshots built, nobody
 *     reading), and publisher + paced readers. publisher/plain is
 *     the fixed price of producing snapshots on the decision path;
 *     readers-on/readers-off is the interference added by actually
 *     serving, which the epoch-snapshot design is meant to keep at
 *     ~1x. Every variant must produce byte-identical convergence
 *     reports.
 *  2. concurrent service — queries answered and latency percentiles
 *     while the table was being built (staleness shown as the epoch
 *     range readers observed).
 *  3. throughput — a fixed query count per reader, flat out, against
 *     the converged table.
 *
 * Writes BENCH_query_serve.json (field reference in README.md).
 *
 * Overrides: BGPBENCH_FAST=1 / --smoke shrink the run;
 * BGPBENCH_NODES, BGPBENCH_SERVE_READERS, BGPBENCH_SNAPSHOT_EVERY,
 * BGPBENCH_QUERY_MIX as in `bgpbench config`.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime_config.hh"
#include "serve/serve_runner.hh"
#include "stats/json.hh"
#include "stats/report.hh"

#include "bench_util.hh"
#include "obs/process_memory.hh"

using namespace bgpbench;

namespace
{

double
wallMs(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = benchutil::fastMode();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else {
            std::cerr << "usage: query_serve [--smoke]\n";
            return 2;
        }
    }

    core::RuntimeConfig runtime = core::RuntimeConfig::fromEnvironment();

    const size_t nodes =
        benchutil::envSize("BGPBENCH_NODES", smoke ? 10 : 24);
    const size_t prefixes_per_node = smoke ? 2 : 4;
    const int repetitions = smoke ? 3 : 5;
    const uint64_t queries_per_reader = smoke ? 50000 : 250000;
    const uint64_t seed = 42;

    serve::ServeRunConfig config;
    config.scenario.prefixesPerNode = prefixes_per_node;
    config.snapshotEvery = runtime.snapshotEvery();
    // Provision readers to the hardware unless explicitly told
    // otherwise: a deployment runs readers on cores the decision
    // process is not using. Oversubscribing a small host turns the
    // isolation measurement into an OS timeslicing measurement.
    size_t readers = runtime.serveReaders();
    if (runtime.serveReadersOrigin() == core::ConfigOrigin::Default) {
        size_t cores =
            std::max(1u, std::thread::hardware_concurrency());
        readers = std::clamp<size_t>(cores - 1, 1, readers);
    }
    config.engine.readers = int(readers);
    config.engine.queriesPerReader = queries_per_reader;
    config.engine.seed = seed;
    workload::QueryMix::parse(runtime.queryMix(),
                              config.engine.stream.mix);

    auto topology = [&] { return topo::Topology::ring(nodes); };

    std::cout << "RIB query serving (" << nodes << "-node ring, "
              << prefixes_per_node << " prefixes/node, "
              << config.engine.readers << " readers, mix "
              << config.engine.stream.mix.toString() << ")\n\n";

    // Isolation: interleave the three attachment levels so machine
    // drift hits all sides equally, then compare the best wall time
    // of each. Byte-compare every report against the plain baseline.
    double plain_ms = 1e300;
    double publish_ms = 1e300;
    double on_ms = 1e300;
    bool identical = true;
    std::string baseline_json;
    serve::ServeRunResult concurrent_result;
    for (int rep = 0; rep < repetitions; ++rep) {
        auto begin = std::chrono::steady_clock::now();
        topo::ConvergenceReport baseline = topo::runAnnounceScenario(
            topology(), "ring", config.scenario);
        plain_ms = std::min(plain_ms, wallMs(begin));
        if (baseline_json.empty())
            baseline_json = baseline.toJson();
        identical = identical && baseline.toJson() == baseline_json;

        // The serve runner times the write-side phase itself
        // (convergenceHostNs), so reader startup/join and reporting
        // stay outside the measured window — exactly as they are for
        // the plain baseline above.
        serve::ServeRunConfig publish_only = config;
        publish_only.concurrentReaders = false;
        publish_only.throughputPhase = false;
        serve::ServeRunResult publish_run = serve::runServeScenario(
            topology(), "ring", publish_only);
        publish_ms = std::min(
            publish_ms, double(publish_run.convergenceHostNs) / 1e6);
        identical = identical &&
                    publish_run.convergence.toJson() == baseline_json;

        serve::ServeRunConfig paced = config;
        paced.throughputPhase = false;
        serve::ServeRunResult run =
            serve::runServeScenario(topology(), "ring", paced);
        on_ms = std::min(on_ms, double(run.convergenceHostNs) / 1e6);
        identical =
            identical && run.convergence.toJson() == baseline_json;
        concurrent_result = std::move(run);
    }
    double publish_overhead =
        plain_ms > 0.0 ? publish_ms / plain_ms : 0.0;
    double isolation = publish_ms > 0.0 ? on_ms / publish_ms : 0.0;

    std::cout << "isolation: plain "
              << stats::formatDouble(plain_ms, 2) << " ms, publisher "
              << stats::formatDouble(publish_ms, 2) << " ms (x"
              << stats::formatDouble(publish_overhead, 3)
              << "), readers on " << stats::formatDouble(on_ms, 2)
              << " ms (x" << stats::formatDouble(isolation, 3)
              << " vs publisher), reports "
              << (identical ? "identical" : "DIVERGED") << "\n";
    const serve::ServeReport &concurrent = concurrent_result.concurrent;
    std::cout << "concurrent: " << concurrent.queries
              << " queries at "
              << stats::formatDouble(concurrent.queriesPerSec / 1e6, 2)
              << " M/s, epochs " << concurrent.firstEpoch << ".."
              << concurrent.lastEpoch << " of "
              << concurrent_result.finalEpoch << "\n";

    // Capacity: flat-out fixed-count phase against the settled table.
    serve::ServeRunConfig flat = config;
    flat.concurrentReaders = false;
    serve::ServeRunResult capacity =
        serve::runServeScenario(topology(), "ring", flat);
    const serve::ServeReport &throughput = capacity.throughput;

    std::cout << "throughput: " << throughput.queries
              << " queries at "
              << stats::formatDouble(throughput.queriesPerSec / 1e6, 2)
              << " M/s over " << capacity.tableSize << " routes ("
              << capacity.snapshotsPublished << " snapshots published)"
              << "\n";
    stats::TextTable table(
        {"class", "queries", "p50 ns", "p99 ns", "max ns"});
    for (const auto &cls : throughput.classes) {
        table.addRow({workload::queryKindName(cls.kind),
                      std::to_string(cls.queries),
                      std::to_string(cls.latencyNs.p50),
                      std::to_string(cls.latencyNs.p99),
                      std::to_string(cls.latencyNs.max)});
    }
    table.print(std::cout);

    std::ofstream json("BENCH_query_serve.json");
    stats::JsonWriter writer(json);
    writer.beginObject();
    writer.field("benchmark", "query_serve");
    writer.field("nodes", uint64_t(nodes));
    writer.field("prefixes_per_node", uint64_t(prefixes_per_node));
    writer.field("seed", seed);
    writer.field("readers", uint64_t(config.engine.readers));
    writer.field("query_mix", config.engine.stream.mix.toString());
    writer.field("snapshot_every", config.snapshotEvery);
    writer.field("snapshots_published", capacity.snapshotsPublished);
    writer.field("final_epoch", capacity.finalEpoch);
    writer.field("table_size", capacity.tableSize);
    writer.field("plain_wall_ms", plain_ms);
    writer.field("publisher_wall_ms", publish_ms);
    writer.field("readers_wall_ms", on_ms);
    writer.field("publish_overhead_ratio", publish_overhead);
    writer.field("isolation_ratio", isolation);
    writer.field("report_identical", identical);
    writer.field("peak_rss_kb", obs::readProcessMemory().vmHwmKb);
    writer.key("concurrent");
    serve::writeServeReportJson(writer, concurrent);
    writer.key("throughput");
    serve::writeServeReportJson(writer, throughput);
    writer.endObject();
    json << "\n";
    std::cout << "\nwrote BENCH_query_serve.json\n";

    if (!identical) {
        std::cerr << "error: attaching readers changed the "
                     "convergence report\n";
        return 1;
    }
    if (throughput.queries !=
        uint64_t(config.engine.readers) * queries_per_reader) {
        std::cerr << "error: throughput phase lost queries\n";
        return 1;
    }
    return 0;
}
