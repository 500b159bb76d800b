/**
 * @file
 * Workload `topo`: a latency-skewed scale-free graph of speakers run
 * sharded at jobs = nproc. Each node originates a few prefixes; the
 * scenario announces, then plays a link-flap train on the graph's
 * first link. Every measured ScenarioRunner::run must converge and
 * produce the report bytes of an untimed jobs = 1 reference run.
 *
 * ScenarioRunner hides individual UPDATEs, so on this workload the
 * UPDATE latencies are the host time per delivered UPDATE of each
 * run (wall time / UPDATEs), and the reads go to a snapshot of the
 * hub router's converged Loc-RIB, taken in set-up from the same
 * topology.
 */

#include <algorithm>
#include <map>

#include "obs/observability.hh"
#include "obs/views.hh"
#include "stats/summary.hh"
#include "topo/scenario_spec.hh"
#include "topo/scenarios.hh"

#include "harness.hh"

namespace hostbench
{

using namespace bgpbench;

namespace
{

struct TopoParams
{
    /**
     * The graph is fixed, so runs of every seed do the same routing
     * work; the seed drives the flap train's jitter. (Different
     * scale-free graphs of this size differ by ±20% in the
     * transactions one link flap causes, which would drown a real
     * change in seed-to-seed spread.)
     */
    uint64_t graphSeed = 42;
    size_t nodes = 128;
    size_t prefixesPerNode = 4;
    size_t flapCycles = 6;
    uint64_t flapPeriodMs = 200;
};

/** Scale-free graph with link latencies spread over 1..13 ms. */
topo::Topology
skewedScaleFree(size_t nodes, uint64_t seed)
{
    topo::Topology ba = topo::Topology::barabasiAlbert(nodes, 2, seed);
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

topo::ScenarioSpec
makeSpec(const TopoParams &params, uint64_t seed)
{
    topo::ScenarioSpec spec;
    spec.name = "flap-train";
    spec.shape = "skewed-scale-free";
    spec.topology = skewedScaleFree(params.nodes, params.graphSeed);
    spec.prefixesPerNode = params.prefixesPerNode;
    sim::SimTime period = sim::nsFromMs(params.flapPeriodMs);
    spec.faults.linkFlapTrain(0, 0, period, 50, params.flapCycles,
                              period / 10, seed);
    return spec;
}

/** The hub's converged table after the announce phase, frozen. */
serve::RibSnapshotPtr
hubSnapshot(const topo::ScenarioSpec &spec, size_t jobs)
{
    topo::TopologySimConfig config;
    config.jobs = jobs;
    topo::TopologySim sim(spec.topology, config);
    sim.runToConvergence(spec.limitNs);
    for (size_t node = 0; node < spec.topology.nodeCount(); ++node) {
        for (size_t i = 0; i < spec.prefixesPerNode; ++i)
            sim.originate(node, topo::scenarioPrefix(node, i), sim.now());
    }
    sim.runToConvergence(spec.limitNs);
    const bgp::BgpSpeaker &hub = sim.speaker(0);
    return serve::RibSnapshot::build(hub.locRib(), hub.ribVersion(),
                                     sim.now());
}

std::string
reportBytes(const topo::ScenarioResult &result)
{
    return result.convergence.toJson() + result.stability.toJson();
}

/**
 * The per-layer values of one traced run: the sync layer and shard
 * metrics the engine publishes into @p m, plus the speakers' counters
 * the shards aggregate there.
 */
void
recordLayers(std::map<std::string, std::vector<double>> &layers,
             const obs::MetricRegistry &m,
             const topo::ScenarioResult &outcome, double wall, double txns)
{
    auto add = [&layers](const char *name, double value) {
        layers[name].push_back(value);
    };
    auto per = [](double part, double whole) {
        return whole > 0 ? part / whole : 0.0;
    };
    double windows = double(m.counterValue(obs::metric::parallelWindows));
    double workers = m.gaugeValue(obs::metric::parallelJobs);
    double shards = m.gaugeValue(obs::metric::parallelShards);
    add("topo.barrier_wait_ratio",
        per(double(m.counterValue(obs::metric::topoBarrierWaitNs)),
            workers * wall * 1e9));
    add("topo.windows", windows);
    add("topo.mean_window_ns",
        per(double(m.counterValue(obs::metric::topoWindowLenNs)), windows));
    add("topo.steals_per_window",
        per(double(m.counterValue(obs::metric::topoStealCount)), windows));
    add("topo.shards", shards);
    add("topo.cut_links", m.gaugeValue(obs::metric::parallelCutLinks));
    add("sim.event_imbalance", obs::parallelEventImbalance(m));
    std::vector<double> busy;
    for (size_t shard = 0; shard < size_t(shards); ++shard) {
        busy.push_back(double(m.counterValue(
                           obs::shardMetricName(shard, "busy_host_ns"))) /
                       1e9);
    }
    add("topo.shard_busy_s_max",
        busy.empty() ? 0.0 : *std::max_element(busy.begin(), busy.end()));
    add("topo.shard_busy_s_mean", stats::summarize(busy).mean);
    add("topo.updates", double(outcome.stability.phaseUpdates));
    double received = double(m.counterValue("bgp.updates_received"));
    double sent = double(m.counterValue("bgp.updates_sent"));
    add("bgp.decisions_per_txn",
        per(double(m.counterValue("bgp.decision_runs")), txns));
    add("bgp.out_updates_per_in_update", per(sent, received));
    add("bgp.prefixes_per_out_update",
        per(double(m.counterValue("bgp.prefixes_advertised")), sent));
    add("fib.updates_per_txn",
        per(double(m.counterValue("rib.fib_changes")), txns));
}

} // namespace

Result
runTopo(const Options &options)
{
    TopoParams params;
    params.nodes = std::max<size_t>(
        8, size_t(double(params.nodes) * options.scale));
    params.flapCycles = std::max<size_t>(
        2, size_t(double(params.flapCycles) * options.scale));
    const size_t jobs = usableThreads();
    Result result;
    result.param("graph_seed", double(params.graphSeed));
    result.param("nodes", double(params.nodes));
    result.param("prefixes_per_node", double(params.prefixesPerNode));
    result.param("flap_cycles", double(params.flapCycles));
    result.param("flap_period_ms", double(params.flapPeriodMs));
    result.param("jobs", double(jobs));
    result.param("reader_threads", double(readerThreads()));

    // Set-up, several times: the topology, the spec, and the hub's
    // table for the read side. Freed memory goes back to the system
    // before each set-up and after each run, so the peak resident set
    // is one run's, not what earlier ones left in the heap.
    constexpr int kSetups = 3;
    std::vector<double> setup_s;
    std::vector<double> gen_s;
    topo::ScenarioSpec spec;
    serve::RibSnapshotPtr hub;
    for (int i = 0; i < kSetups; ++i) {
        hub.reset();
        releaseFreedMemory();
        uint64_t start = nowNs();
        spec = makeSpec(params, options.seed);
        uint64_t generated = nowNs();
        hub = hubSnapshot(spec, jobs);
        setup_s.push_back(double(nowNs() - start) / 1e9);
        gen_s.push_back(double(generated - start) / 1e9);
    }
    result.param("links", double(spec.topology.linkCount()));
    result.param("hub_routes", double(hub->size()));
    result.expect(hub->size() == params.nodes * params.prefixesPerNode,
                  "hub table holds " + std::to_string(hub->size()) +
                      " routes");

    // The untimed jobs = 1 reference every measured run must match.
    std::string reference;
    {
        topo::ScenarioSpec sequential = spec;
        sequential.simConfig.jobs = 1;
        topo::ScenarioResult run = topo::ScenarioRunner(sequential).run();
        result.attempt(1);
        result.expect(run.convergence.converged,
                      "the jobs = 1 reference run did not converge");
        reference = reportBytes(run);
    }

    // Measured: scenario runs, each followed by a read burst against
    // the hub's table lasting a third of the run, so the reads sample
    // the whole run.
    std::vector<net::Prefix> targets;
    for (const auto &route : hub->routes())
        targets.push_back(route.prefix);
    ReadSide reads([&hub] { return hub; }, targets, {}, readerThreads(),
                   options.seed, options.trace);
    SpanLog log(0, 10000);
    std::vector<double> converge;
    std::vector<double> tps;
    std::vector<double> usPerUpdate;
    std::vector<double> tracedConverge;
    /** Per-layer values of each traced run, by metric name. */
    std::map<std::string, std::vector<double>> layers;
    const uint64_t measureStart = nowNs();
    for (int rep = 0;; ++rep) {
        bool traced = options.trace && rep % 2 == 1;
        obs::RunObservability observability;
        topo::ScenarioSpec run = spec;
        run.simConfig.jobs = jobs;
        if (traced)
            run.simConfig.obs = &observability;
        uint64_t start = nowNs();
        topo::ScenarioResult outcome = topo::ScenarioRunner(run).run();
        uint64_t end = nowNs();
        double wall = double(end - start) / 1e9;
        result.attempt(1);
        result.expect(outcome.convergence.converged,
                      "run " + std::to_string(rep) + " did not converge");
        result.expect(reportBytes(outcome) == reference,
                      "run " + std::to_string(rep) +
                          " report differs from the jobs = 1 reference");
        double txns = double(outcome.convergence.totalTransactions);
        double updates = double(outcome.convergence.totalUpdates);
        if (traced) {
            tracedConverge.push_back(wall);
            log.add(SpanKind::Scenario, start, end);
            recordLayers(layers, observability.metrics, outcome, wall, txns);
        } else {
            converge.push_back(wall);
            tps.push_back(txns / wall);
            usPerUpdate.push_back(wall * 1e6 / std::max(1.0, updates));
        }
        reads.burst(wall / 3);
        releaseFreedMemory();

        double elapsed = double(nowNs() - measureStart) / 1e9;
        bool enough = !options.trace || rep >= 2;
        if (elapsed >= options.seconds && enough)
            break;
    }
    ReadReport read = reads.report();
    checkReads(result, read);

    // Per-run UPDATE costs, reported by the same percentile rule.
    double q = reportablePercentile(usPerUpdate.size(), 0.99);
    Percentile q99 = read.latency.tail(0.99);
    result.note("runs " +
                std::to_string(converge.size() + tracedConverge.size()) +
                ", UPDATE cost p" + std::to_string(int(q * 100)) + " of " +
                std::to_string(usPerUpdate.size()) + " runs; query p" +
                std::to_string(int(q99.q * 100)) + " of " +
                std::to_string(q99.count) + " queries");

    std::sort(usPerUpdate.begin(), usPerUpdate.end());
    result.set("tps", stats::summarize(tps).p50);
    result.set("update_p50_us", stats::percentile(usPerUpdate, 0.5));
    result.set("update_p99_us", stats::percentile(usPerUpdate, q));
    result.set("query_qps", read.queriesPerSecond());
    result.set("query_p99_us", q99.value / 1e3);
    result.set("converge_s", stats::summarize(converge).p50);
    result.set("peak_rss_mb", peakRssMb());
    result.set("setup_s", stats::summarize(setup_s).p50);

    if (options.trace) {
        for (const auto &[name, values] : layers)
            result.set(name, stats::summarize(values).mean);
        reportServe(result, read, {}, 1.0);
        result.set("workload.gen_s", stats::summarize(gen_s).p50);
        std::vector<const SpanLog *> logs = reads.logs();
        logs.insert(logs.begin(), &log);
        finishTrace(result, options, converge, tracedConverge, logs);
    }
    return result;
}

} // namespace hostbench
