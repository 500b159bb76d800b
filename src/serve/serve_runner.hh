/**
 * @file
 * The serve scenario: a ScenarioRunner run with the read side
 * attached.
 *
 * runServeScenario() runs any topo::ScenarioSpec through the one
 * topo::ScenarioRunner — same phases, same virtual-time schedule,
 * same report bytes — while node 0's speaker publishes epoch
 * snapshots of its Loc-RIB and a query engine serves a synthetic
 * client population against them. The run has two measured read-side
 * phases:
 *
 *  1. concurrent: paced readers issue queries while the scenario runs
 *     (the interference measurement — does serving reads slow the
 *     decision process, and what staleness do readers see?);
 *  2. throughput: after the run the readers issue a fixed query
 *     count flat out against the final table (the capacity
 *     measurement).
 *
 * Attaching the read side must not change the simulation: snapshots
 * are published at virtual-time boundaries the speaker reached
 * anyway, and readers only ever touch immutable snapshots, so the
 * scenario result is byte-identical with readers on or off — the
 * determinism suite asserts this at several shard counts.
 */

#ifndef BGPBENCH_SERVE_SERVE_RUNNER_HH
#define BGPBENCH_SERVE_SERVE_RUNNER_HH

#include <cstdint>

#include "serve/query_engine.hh"
#include "topo/scenario_spec.hh"

namespace bgpbench::serve
{

/** Knobs of one serve scenario run. */
struct ServeRunConfig
{
    /**
     * The scenario the read side rides. Readers query the prefix
     * grid it originates (prefixesPerNode per node).
     */
    topo::ScenarioSpec scenario;
    QueryEngineConfig engine;
    /**
     * Snapshot granularity: 0 publishes at flush boundaries, N > 0
     * after every N decision-process runs that changed the RIB.
     */
    uint64_t snapshotEvery = 0;
    /** Run paced readers while the scenario runs. */
    bool concurrentReaders = true;
    /** Run the flat-out throughput phase after the scenario. */
    bool throughputPhase = true;
};

/** Everything one serve scenario run produced. */
struct ServeRunResult
{
    /** Byte-identical to topo::ScenarioRunner on the same spec. */
    topo::ScenarioResult scenario;
    /** Host wall time of ScenarioRunner::run (the write side). */
    uint64_t convergenceHostNs = 0;
    /** Read-side results while converging (empty when disabled). */
    ServeReport concurrent;
    /** Read-side results against the final table (empty if disabled). */
    ServeReport throughput;
    uint64_t snapshotsPublished = 0;
    /** Epoch (Loc-RIB version) of the final snapshot. */
    uint64_t finalEpoch = 0;
    /** Routes in the final snapshot. */
    uint64_t tableSize = 0;
};

/** Run config.scenario with the read side attached. */
ServeRunResult runServeScenario(const ServeRunConfig &config);

} // namespace bgpbench::serve

#endif // BGPBENCH_SERVE_SERVE_RUNNER_HH
