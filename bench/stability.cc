/**
 * @file
 * Extension benchmark: churn and stability under sustained flapping.
 *
 * The paper's Phase-3 scenarios meter one speaker's incremental
 * throughput; this bench asks the stability literature's question at
 * topology scope: how much update churn does one injected fault cost
 * the *network*, and what do the two classic countermeasures — RFC
 * 2439 route flap damping and RFC 4271 MRAI batching — buy back? One
 * declarative ScenarioSpec (a link-flap train plus a beacon-prefix
 * train, period/duty/jitter fixed by the seed) is swept across the
 * MRAI x damping x topology-class grid (ring / mesh / scale-free /
 * Clos), and every cell reports the StabilityReport metrics:
 * updates-per-convergence, churn amplification, path-exploration
 * depth, and the damping suppress/reuse transition counts.
 *
 * Every cell is run at jobs = 1, 2, 4, 8 and the convergence +
 * stability reports must be byte-identical across all four — the
 * "deterministic" column. Wall time never appears in the output, so
 * BENCH_stability.json is byte-stable run to run. Every run also
 * prints the damping-off ablation and asserts, per topology class at
 * MRAI 0, that churn amplification strictly increases when damping is
 * switched off and that damping strictly reduces
 * updates-per-convergence.
 *
 *   --smoke   shrink topologies and train length (CI)
 *
 * Overrides: BGPBENCH_FAST=1 behaves like --smoke.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "stats/json.hh"
#include "stats/report.hh"
#include "topo/scenario_spec.hh"

#include "bench_util.hh"

using namespace bgpbench;

namespace
{

constexpr size_t kJobs[] = {1, 2, 4, 8};

struct CellConfig
{
    std::string shapeName;
    size_t nodes = 0;
    uint64_t mraiMs = 0;
    bool damping = false;
};

struct CellResult
{
    CellConfig config;
    bool converged = false;
    bool deterministic = false;
    double convergenceTimeSec = 0.0;
    topo::StabilityReport stability;
};

/**
 * Topology plus the node its beacon train targets. Every shape runs
 * the default workload, which originates only at nodes whose AS no
 * other node shares: every node of ring, mesh and scale-free, and
 * the ToRs of the Clos fabric (a spine- or agg-originated prefix is
 * loop-rejected by the other members of its shared AS — RFC 7938
 * numbering). The beacon train targets a node that originates.
 */
struct ShapeSetup
{
    topo::Topology topology;
    size_t beaconNode = 0;
};

ShapeSetup
makeShape(const std::string &name, size_t nodes)
{
    ShapeSetup setup;
    if (name == "ring") {
        setup.topology = topo::Topology::ring(nodes);
    } else if (name == "mesh") {
        setup.topology = topo::Topology::fullMesh(nodes);
    } else if (name == "scale-free") {
        setup.topology = topo::Topology::barabasiAlbert(nodes, 2, 42);
    } else {
        // The canonical 10-node fabric of the ECMP suite: 2 spines,
        // 2 pods x (2 aggs + 2 tors); node 4 is the first ToR.
        setup.topology = topo::Topology::clos({});
        setup.beaconNode = 4;
    }
    return setup;
}

/**
 * The one churn scenario of the sweep: link 0 flaps in a 50% duty
 * train with a deterministic 10%-of-period jitter, while a beacon
 * prefix runs a down/up train offset by a quarter period so the two
 * churn sources interleave instead of coinciding.
 */
topo::ScenarioSpec
makeSpec(const CellConfig &cell, size_t cycles, uint64_t period_ms,
         size_t jobs)
{
    ShapeSetup setup = makeShape(cell.shapeName, cell.nodes);
    topo::ScenarioSpec spec;
    spec.name = "flap-train";
    spec.shape = cell.shapeName;
    spec.topology = std::move(setup.topology);
    spec.simConfig.jobs = jobs;
    if (cell.damping)
        spec.simConfig.damping = topo::churnDampingConfig();
    spec.simConfig.mraiNs = sim::nsFromMs(cell.mraiMs);

    sim::SimTime period = sim::nsFromMs(period_ms);
    spec.faults.linkFlapTrain(0, 0, period, 50, cycles, period / 10,
                              42);
    spec.faults.beaconTrain(setup.beaconNode, 0, period / 4, period,
                            cycles);
    return spec;
}

CellResult
runCell(const CellConfig &cell, size_t cycles, uint64_t period_ms)
{
    CellResult result;
    result.config = cell;
    std::string baseline;
    for (size_t jobs : kJobs) {
        topo::ScenarioResult run =
            topo::ScenarioRunner(makeSpec(cell, cycles, period_ms,
                                          jobs))
                .run();
        std::string rendering = run.convergence.toJson() + "\n" +
                                run.stability.toJson();
        if (jobs == kJobs[0]) {
            baseline = rendering;
            result.deterministic = true;
            result.converged = run.convergence.converged;
            result.convergenceTimeSec =
                run.convergence.convergenceTimeSec;
            result.stability = run.stability;
        } else if (rendering != baseline) {
            result.deterministic = false;
        }
    }
    return result;
}

const CellResult *
findCell(const std::vector<CellResult> &cells,
         const std::string &shape, uint64_t mrai_ms, bool damping)
{
    for (const CellResult &cell : cells) {
        if (cell.config.shapeName == shape &&
            cell.config.mraiMs == mrai_ms &&
            cell.config.damping == damping)
            return &cell;
    }
    return nullptr;
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
            std::cerr << "usage: stability [--smoke]\n";
            return 2;
        }
    }

    const size_t cycles = smoke ? 3 : 6;
    const uint64_t period_ms = 200;
    struct ShapeSize
    {
        const char *name;
        size_t nodes;
    };
    const std::vector<ShapeSize> shapes = {
        {"ring", smoke ? size_t(8) : size_t(16)},
        {"mesh", smoke ? size_t(6) : size_t(10)},
        {"scale-free", smoke ? size_t(8) : size_t(16)},
        {"clos", smoke ? size_t(8) : size_t(16)},
    };
    const uint64_t mrai_values[] = {0, 100};
    const bool damping_values[] = {false, true};

    std::cout << "Churn & stability sweep (flap + beacon trains, "
              << cycles << " cycles of " << period_ms
              << " ms, MRAI x damping x topology, jobs 1/2/4/8 "
                 "byte-compared)\n\n";

    std::vector<CellResult> cells;
    for (const ShapeSize &shape : shapes) {
        for (uint64_t mrai_ms : mrai_values) {
            for (bool damping : damping_values) {
                CellConfig cell;
                cell.shapeName = shape.name;
                cell.nodes = shape.nodes;
                cell.mraiMs = mrai_ms;
                cell.damping = damping;
                cells.push_back(runCell(cell, cycles, period_ms));
            }
        }
    }

    stats::TextTable table({"topology", "mrai ms", "damping",
                            "upd/conv", "churn amp", "expl max",
                            "suppress", "reuse", "report"});
    for (const CellResult &cell : cells) {
        table.addRow(
            {cell.config.shapeName,
             std::to_string(cell.config.mraiMs),
             cell.config.damping ? "on" : "off",
             stats::formatDouble(
                 cell.stability.updatesPerConvergence, 2),
             stats::formatDouble(cell.stability.churnAmplification,
                                 2),
             std::to_string(cell.stability.pathExplorationMax),
             std::to_string(cell.stability.dampingSuppressed),
             std::to_string(cell.stability.dampingReused),
             !cell.deterministic ? "DIVERGED"
             : cell.converged    ? "identical"
                                 : "NO CONVERGENCE"});
    }
    table.print(std::cout);

    std::ofstream json("BENCH_stability.json");
    stats::JsonWriter writer(json);
    writer.beginObject();
    writer.field("benchmark", "stability_sweep");
    writer.field("smoke", smoke);
    writer.field("flap_cycles", uint64_t(cycles));
    writer.field("flap_period_ms", period_ms);
    writer.key("jobs");
    writer.beginArray();
    for (size_t jobs : kJobs)
        writer.value(uint64_t(jobs));
    writer.endArray();
    writer.key("cells");
    writer.beginArray();
    for (const CellResult &cell : cells) {
        writer.beginObject();
        writer.field("topology", cell.config.shapeName);
        writer.field("nodes", uint64_t(cell.stability.nodes));
        writer.field("mrai_ms", cell.config.mraiMs);
        writer.field("damping", cell.config.damping);
        writer.field("converged", cell.converged);
        writer.field("deterministic", cell.deterministic);
        writer.field("convergence_time_s", cell.convergenceTimeSec);
        writer.key("stability");
        cell.stability.writeJson(writer);
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
    json << "\n";
    std::cout << "\nwrote BENCH_stability.json\n";

    int rc = 0;
    for (const CellResult &cell : cells) {
        if (!cell.converged) {
            std::cerr << "error: " << cell.config.shapeName
                      << " mrai=" << cell.config.mraiMs << " damping="
                      << (cell.config.damping ? "on" : "off")
                      << " did not converge\n";
            rc = 1;
        }
        if (!cell.deterministic) {
            std::cerr << "error: " << cell.config.shapeName
                      << " mrai=" << cell.config.mraiMs << " damping="
                      << (cell.config.damping ? "on" : "off")
                      << " diverged across jobs\n";
            rc = 1;
        }
    }

    std::cout << "\ndamping-off ablation (MRAI 0):\n";
    for (const ShapeSize &shape : shapes) {
        const CellResult *off = findCell(cells, shape.name, 0, false);
        const CellResult *on = findCell(cells, shape.name, 0, true);
        bool churn_up = off->stability.churnAmplification >
                        on->stability.churnAmplification;
        bool updates_down = on->stability.updatesPerConvergence <
                            off->stability.updatesPerConvergence;
        std::cout
            << "  " << shape.name << ": churn amp "
            << stats::formatDouble(on->stability.churnAmplification, 2)
            << " (on) -> "
            << stats::formatDouble(off->stability.churnAmplification, 2)
            << " (off), upd/conv "
            << stats::formatDouble(on->stability.updatesPerConvergence, 2)
            << " (on) -> "
            << stats::formatDouble(off->stability.updatesPerConvergence,
                                   2)
            << " (off)"
            << ((churn_up && updates_down) ? "" : "  VIOLATION")
            << "\n";
        if (!churn_up || !updates_down) {
            std::cerr << "error: damping did not reduce churn on "
                      << shape.name << "\n";
            rc = 1;
        }
    }
    return rc;
}
