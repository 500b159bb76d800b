/**
 * @file
 * Multi-threaded read-side query engine over published RIB snapshots.
 *
 * The engine owns M reader threads, each with its own deterministic
 * QueryStream and its own obs::MetricRegistry (the per-shard pattern
 * of the parallel engine: no shared mutable metric state on the hot
 * path; registries are absorbed after the threads join, and absorb()
 * is order-independent, so the merged numbers do not depend on thread
 * arrival order).
 *
 * Each reader re-acquires the newest snapshot at batch boundaries,
 * executes the batch against that one epoch, and optionally encodes
 * every response into a pooled WireSegment (the cost a real speaker
 * would pay to put the answer on a management-plane socket). Latency
 * is recorded per query class into fixed-bucket nanosecond
 * histograms; wall-clock timestamps never influence results, only
 * measurements.
 *
 * Two running modes cover the two benchmark questions:
 *  - paced (startPaced): readers run concurrently with the decision
 *    process to measure interference, sleeping pacedIntervalNs
 *    between batches of pacedBatch queries so the measurement works
 *    even on a single hardware thread;
 *  - flat-out (runFixed): a fixed query count per reader measures
 *    peak sustained throughput against a quiescent table.
 */

#ifndef BGPBENCH_SERVE_QUERY_ENGINE_HH
#define BGPBENCH_SERVE_QUERY_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "serve/publisher.hh"
#include "serve/snapshot.hh"
#include "workload/query_stream.hh"

namespace bgpbench::stats
{
class JsonWriter;
} // namespace bgpbench::stats

namespace bgpbench::serve
{

/** Parameters of one query-engine run. */
struct QueryEngineConfig
{
    /** Reader thread count. */
    int readers = 4;
    /** Queries each reader executes in runFixed(). */
    uint64_t queriesPerReader = 100000;
    /** Base seed; reader r streams with seed + r. */
    uint64_t seed = 1;
    workload::QueryStreamConfig stream;
};

/** Per-class outcome of a run. */
struct QueryClassStats
{
    workload::QueryKind kind = workload::QueryKind::Lookup;
    uint64_t queries = 0;
    /** Queries answered from the table (miss = no covering route). */
    uint64_t hits = 0;
    obs::HistogramSummary latencyNs;
};

/** Outcome of one engine run. */
struct ServeReport
{
    uint64_t queries = 0;
    /** Aggregate wall time (max over readers), nanoseconds. */
    uint64_t wallNs = 0;
    double queriesPerSec = 0.0;
    /** Response bytes encoded into wire segments. */
    uint64_t encodedBytes = 0;
    /** Routes visited by Scan queries. */
    uint64_t routesScanned = 0;
    /** Snapshot epochs observed: first and last across all readers. */
    uint64_t firstEpoch = 0;
    uint64_t lastEpoch = 0;
    std::vector<QueryClassStats> classes;
};

/**
 * Emit @p report as one JSON object (the "concurrent"/"throughput"
 * objects of BENCH_query_serve.json; field reference in README.md).
 */
void writeServeReportJson(stats::JsonWriter &json,
                          const ServeReport &report);

class QueryEngine
{
  public:
    /**
     * Paced mode: queries per polling burst. Paced readers model
     * fixed-rate telemetry pollers, not spinning clients — each
     * burst samples latency and staleness, then the reader sleeps.
     */
    static constexpr uint64_t pacedBatch = 32;
    /**
     * Paced mode: sleep between bursts. Bounds the read side's CPU
     * share (4 readers x 32 queries / 5 ms is well under a percent
     * of one core), which is what keeps the decision process
     * unmolested even when readers outnumber hardware threads.
     */
    static constexpr uint64_t pacedIntervalNs = 5000000;

    /**
     * @param publisher Source of snapshots; must outlive the engine.
     * @param targets Prefix population queries are drawn from.
     */
    QueryEngine(const SnapshotPublisher &publisher,
                std::vector<net::Prefix> targets,
                const QueryEngineConfig &config);

    ~QueryEngine() { stop(); }

    QueryEngine(const QueryEngine &) = delete;
    QueryEngine &operator=(const QueryEngine &) = delete;

    /**
     * Start paced readers that run until stop(): execute pacedBatch
     * queries, sleep pacedIntervalNs, repeat. Every reader executes
     * at least one batch, however soon stop() follows. Used to load
     * the read side while a convergence run drives the write side.
     */
    void startPaced();

    /** Join paced readers (idempotent; no-op if none are running). */
    void stop();

    /**
     * Run every reader for exactly queriesPerReader queries, flat
     * out, and return the merged report. Not concurrent with paced
     * mode.
     */
    ServeReport runFixed();

    /**
     * Merge all per-reader metrics + counters into a report (called
     * internally by runFixed; call after stop() for paced runs).
     * Resets nothing; a second call returns the same totals.
     */
    ServeReport report();

    /**
     * Fold the per-reader metric registries into @p target (e.g. the
     * benchmark's report registry). Call after stop()/runFixed().
     */
    void absorbInto(obs::MetricRegistry &target);

  private:
    /** Queries run flat out against one snapshot acquisition. */
    static constexpr uint64_t batchSize = 256;
    /** Routes a Scan query visits at most. */
    static constexpr size_t scanLimit = 64;

    struct Reader
    {
        std::unique_ptr<workload::QueryStream> stream;
        std::unique_ptr<obs::MetricRegistry> metrics;
        std::thread thread;
        uint64_t queries = 0;
        uint64_t hits[4] = {0, 0, 0, 0};
        uint64_t perClass[4] = {0, 0, 0, 0};
        uint64_t encodedBytes = 0;
        uint64_t routesScanned = 0;
        uint64_t wallNs = 0;
        uint64_t firstEpoch = 0;
        uint64_t lastEpoch = 0;
    };

    /**
     * Execute one query against @p snapshot, encoding the response
     * into a pooled WireSegment; returns hit/miss.
     */
    bool execute(const RibSnapshot &snapshot, const workload::Query &query,
                 Reader &reader);

    /** Reader body: batches until @p stopFlag (0 = until quota). */
    void readerLoop(Reader &reader, uint64_t quota);

    const SnapshotPublisher &publisher_;
    QueryEngineConfig config_;
    std::vector<std::unique_ptr<Reader>> readers_;
    std::atomic<bool> stopFlag_{false};
    bool pacedRunning_ = false;
};

} // namespace bgpbench::serve

#endif // BGPBENCH_SERVE_QUERY_ENGINE_HH
