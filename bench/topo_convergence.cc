/**
 * @file
 * Extension benchmark: network-wide convergence.
 *
 * The paper measures one router between two test speakers; this bench
 * instantiates N full speakers in AS-level topologies and measures
 * what the per-router processing speed buys operationally: how fast
 * the *network* converges after announcements, a link failure, and a
 * router reboot. Every run is fully deterministic — the same seed
 * produces byte-identical run reports at ANY worker count, so the
 * trajectory of convergence times can be tracked for regressions.
 *
 * Overrides: BGPBENCH_FAST=1 shrinks the topologies;
 * BGPBENCH_NODES=<n> sets the router count directly;
 * BGPBENCH_JOBS=<n> / --jobs <n> sets the worker threads (0 = auto).
 *
 * --sweep (or BGPBENCH_SWEEP=1) additionally runs the announce
 * scenario at jobs = 1, 2, 4, 8 on two shapes — a full mesh (uniform
 * work, every cut 1 ms: the sync layer's worst case) and a
 * scale-free graph with heterogeneous link latencies (skewed
 * per-shard work and per-shard cut latencies: where work-stealing
 * and the per-shard causality bound actually bite) — printing the
 * wall-clock speedup tables with the sync-layer health columns
 * (barrier-wait fraction, mean window length, steals per window)
 * read back from the observability registry, and asserting that
 * every report is byte-identical to the jobs = 1 one. Every jobs
 * value runs the same window loop; at jobs = 1 the one shard has no
 * cut link, so each run of a scenario is one window of length 0.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "core/runtime_config.hh"
#include "obs/observability.hh"
#include "obs/views.hh"
#include "stats/json.hh"
#include "topo/partition.hh"
#include "topo/scenario_spec.hh"

#include "bench_util.hh"

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

/**
 * The declarative form of every run in this bench: a named spec on a
 * shape, optionally with a fault schedule, executed by the one
 * ScenarioRunner. @p layout, when given, receives the engine's shard
 * partition.
 */
topo::ConvergenceReport
runSpec(topo::Topology topology, const std::string &shape,
        const std::string &name, topo::FaultSchedule faults,
        const topo::TopologySimConfig &sim_config,
        topo::Partition *layout = nullptr)
{
    topo::ScenarioSpec spec;
    spec.name = name;
    spec.shape = shape;
    spec.topology = std::move(topology);
    spec.simConfig = sim_config;
    spec.faults = std::move(faults);
    topo::ScenarioRunner runner(std::move(spec));
    topo::ConvergenceReport report = runner.run().convergence;
    if (layout)
        *layout = runner.sim().partition();
    return report;
}

struct SweepPoint
{
    size_t jobs;
    double wallMs = 0.0;
    bool identical = false;
    /** Conservative windows the run stepped through. */
    uint64_t windows = 0;
    /** Mean opened window length (virtual ns — deterministic). */
    double meanWindowNs = 0.0;
    /** Host time blocked on the barrier / total worker time. */
    double barrierWaitPct = 0.0;
    /** Cross-worker shard steals per window (host diagnostic). */
    double stealsPerWindow = 0.0;
};

/**
 * A scale-free graph with latencies spread across 1..13 ms by link
 * index. The degree skew gives shards visibly unequal work (the
 * stealing deques' home turf) and the latency skew gives shards
 * unequal minimum cut latencies (what the per-shard causality bound
 * exploits to stretch windows past the smallest cut latency).
 */
topo::Topology
skewedScaleFree(size_t n)
{
    topo::Topology ba = topo::Topology::barabasiAlbert(n, 2, 42);
    topo::Topology mixed;
    for (size_t i = 0; i < ba.nodeCount(); ++i)
        mixed.addNode(topo::Topology::defaultNode(i, {}));
    for (size_t l = 0; l < ba.linkCount(); ++l) {
        const topo::Link &link = ba.link(l);
        mixed.addLink(link.a.node, link.b.node,
                      sim::nsFromMs(1 + (l * 7) % 13), 100.0);
    }
    return mixed;
}

/**
 * The thread-sweep: one announce scenario on the given shape at
 * escalating worker counts, against the jobs = 1 report bytes. Each
 * point runs with observability attached and reads the sync-layer
 * counters back out of the registry; the report bytes must not care
 * (that is half of what the identical column asserts).
 */
std::vector<SweepPoint>
runSweep(const topo::Topology &shape, const std::string &name)
{
    std::vector<SweepPoint> points;
    std::string baseline;
    for (size_t jobs : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
        topo::TopologySimConfig sim_config;
        sim_config.jobs = jobs;
        obs::RunObservability obs;
        sim_config.obs = &obs;
        auto begin = std::chrono::steady_clock::now();
        topo::ConvergenceReport report =
            runSpec(shape, name, "announce", {}, sim_config);
        SweepPoint point;
        point.jobs = jobs;
        point.wallMs = wallMs(begin);
        std::string json = report.toJson();
        if (jobs == 1)
            baseline = json;
        point.identical = json == baseline;
        point.windows =
            obs.metrics.counterValue(obs::metric::parallelWindows);
        uint64_t window_len = obs.metrics.counterValue(
            obs::metric::topoWindowLenNs);
        uint64_t barrier_wait = obs.metrics.counterValue(
            obs::metric::topoBarrierWaitNs);
        uint64_t steals =
            obs.metrics.counterValue(obs::metric::topoStealCount);
        double workers =
            obs.metrics.gaugeValue(obs::metric::parallelJobs);
        if (point.windows > 0) {
            point.meanWindowNs =
                double(window_len) / double(point.windows);
            point.stealsPerWindow =
                double(steals) / double(point.windows);
        }
        double worker_ns = workers * point.wallMs * 1e6;
        if (worker_ns > 0) {
            point.barrierWaitPct =
                100.0 * double(barrier_wait) / worker_ns;
        }
        points.push_back(point);
    }
    return points;
}

} // namespace

int
main(int argc, char **argv)
{
    size_t nodes = benchutil::envSize(
        "BGPBENCH_NODES", benchutil::fastMode() ? 10 : 24);
    core::RuntimeConfig runtime = core::RuntimeConfig::fromEnvironment();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            runtime.overrideJobs(
                core::parseNumberArg<size_t>(arg, argv[++i]));
        } else if (arg == "--sweep") {
            runtime.overrideSweep(true);
        } else {
            std::cerr << "usage: topo_convergence [--jobs N] "
                         "[--sweep]\n";
            return 2;
        }
    }
    size_t jobs = runtime.jobs();
    bool sweep = runtime.sweep();
    const uint64_t seed = 42;
    const size_t attach = 2;

    std::cout << "Network-wide convergence (" << nodes
              << " routers per topology, seed " << seed << ", jobs "
              << jobs << ")\n";

    topo::TopologySimConfig sim_config;
    sim_config.jobs = jobs;
    std::vector<topo::ConvergenceReport> runs;
    // The engine's layout of the random shape at the selected worker
    // count, recorded so a trajectory point documents its own
    // execution layout.
    topo::Partition partition;

    runs.push_back(runSpec(topo::Topology::line(nodes), "line",
                           "announce", {}, sim_config));
    runs.push_back(runSpec(topo::Topology::ring(nodes), "ring",
                           "announce", {}, sim_config));
    runs.push_back(runSpec(topo::Topology::star(nodes), "star",
                           "announce", {}, sim_config));
    runs.push_back(runSpec(
        topo::Topology::barabasiAlbert(nodes, attach, seed), "random",
        "announce", {}, sim_config, &partition));

    // Fault scenarios on the shapes where they are most interesting:
    // a ring re-routes around a failed link; the random graph loses
    // its oldest (highest-degree) router for 50 ms.
    runs.push_back(runSpec(
        topo::Topology::ring(nodes), "ring", "link-failure",
        topo::FaultSchedule().linkDown(0, 0), sim_config));
    runs.push_back(runSpec(
        topo::Topology::barabasiAlbert(nodes, attach, seed), "random",
        "router-reboot",
        topo::FaultSchedule().routerRestart(0, 0, sim::nsFromMs(50)),
        sim_config));

    for (const topo::ConvergenceReport &run : runs) {
        std::cout << "\n";
        run.printText(std::cout);
    }

    struct SweepRun
    {
        std::string scenario;
        std::vector<SweepPoint> points;
    };
    std::vector<SweepRun> sweeps;
    if (sweep) {
        size_t mesh_nodes = benchutil::fastMode() ? 16 : 64;
        size_t skew_nodes = benchutil::fastMode() ? 24 : 64;
        sweeps.push_back(
            {"mesh " + std::to_string(mesh_nodes),
             runSweep(topo::Topology::fullMesh(mesh_nodes), "mesh")});
        sweeps.push_back(
            {"skewed " + std::to_string(skew_nodes),
             runSweep(skewedScaleFree(skew_nodes), "skewed")});
        for (const SweepRun &run : sweeps) {
            std::cout << "\nThread sweep: announce on " << run.scenario
                      << "\n";
            std::cout << "jobs  wall ms   speedup  barrier%  "
                         "window ms  steals/win  report\n";
            for (const SweepPoint &point : run.points) {
                std::cout
                    << point.jobs << "     "
                    << stats::formatDouble(point.wallMs, 1) << "   "
                    << stats::formatDouble(
                           run.points[0].wallMs / point.wallMs, 2)
                    << "x    "
                    << stats::formatDouble(point.barrierWaitPct, 1)
                    << "      "
                    << stats::formatDouble(point.meanWindowNs / 1e6, 3)
                    << "      "
                    << stats::formatDouble(point.stealsPerWindow, 2)
                    << "        "
                    << (point.identical ? "identical" : "DIVERGED")
                    << "\n";
            }
        }
    }

    size_t resolved = jobs;
    if (resolved == 0) {
        resolved =
            std::max<size_t>(1, std::thread::hardware_concurrency());
    }

    std::ofstream json("BENCH_topo_convergence.json");
    stats::JsonWriter writer(json);
    writer.beginObject();
    writer.field("benchmark", "topo_convergence");
    writer.field("nodes", uint64_t(nodes));
    writer.field("seed", seed);
    writer.field("jobs", uint64_t(resolved));
    writer.field("shards", uint64_t(partition.shardCount));
    writer.field("cut_links", uint64_t(partition.cutLinks));
    writer.field("edge_cut_ratio", partition.edgeCutRatio);
    writer.key("runs");
    writer.beginArray();
    for (const topo::ConvergenceReport &run : runs)
        run.writeJson(writer);
    writer.endArray();
    if (sweep) {
        writer.key("sweep");
        writer.beginArray();
        for (const SweepRun &run : sweeps) {
            for (const SweepPoint &point : run.points) {
                writer.beginObject();
                writer.field("scenario", run.scenario);
                writer.field("jobs", uint64_t(point.jobs));
                writer.field("wall_ms", point.wallMs);
                writer.field("report_identical", point.identical);
                // windows / mean_window_ns are virtual-time
                // quantities (deterministic for a fixed config);
                // barrier_wait_pct and steals_per_window are
                // host-side diagnostics, like wall_ms.
                writer.field("windows", point.windows);
                writer.field("mean_window_ns", point.meanWindowNs);
                writer.field("barrier_wait_pct",
                             point.barrierWaitPct);
                writer.field("steals_per_window",
                             point.stealsPerWindow);
                writer.endObject();
            }
        }
        writer.endArray();
    }
    writer.endObject();
    json << "\n";
    std::cout << "\nwrote BENCH_topo_convergence.json\n";

    bool all_converged = true;
    for (const topo::ConvergenceReport &run : runs)
        all_converged = all_converged && run.converged;
    if (!all_converged) {
        std::cerr << "error: a scenario failed to converge\n";
        return 1;
    }
    for (const SweepRun &run : sweeps) {
        for (const SweepPoint &point : run.points) {
            if (!point.identical) {
                std::cerr << "error: parallel report diverged on "
                          << run.scenario << " at jobs " << point.jobs
                          << "\n";
                return 1;
            }
        }
    }
    return 0;
}
