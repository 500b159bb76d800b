/**
 * @file
 * Tests for the multi-threaded read-side query engine.
 */

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/rib.hh"
#include "serve/publisher.hh"
#include "serve/query_engine.hh"

using namespace bgpbench;
using namespace bgpbench::serve;

namespace
{

bgp::PathAttributesPtr
attrs(uint16_t origin_as)
{
    bgp::PathAttributes a;
    a.asPath = bgp::AsPath::sequence({origin_as});
    a.nextHop = net::Ipv4Address(10, 0, 0, 1);
    return bgp::makeAttributes(std::move(a));
}

/** A publisher loaded with @p count /24 routes at epoch 1. */
SnapshotPublisher &
loadedPublisher(SnapshotPublisher &publisher, size_t count)
{
    bgp::LocRib rib;
    for (size_t i = 0; i < count; ++i) {
        bgp::Candidate candidate;
        candidate.attributes = attrs(uint16_t(100 + i % 7));
        candidate.peer = bgp::PeerId(i % 4);
        rib.select(net::Prefix(net::Ipv4Address(10, uint8_t(i / 256),
                                                uint8_t(i % 256), 0),
                               24),
                   candidate);
    }
    publisher.onRibPublish(rib, 1, 0);
    return publisher;
}

std::vector<net::Prefix>
routeTargets(size_t count)
{
    std::vector<net::Prefix> out;
    for (size_t i = 0; i < count; ++i)
        out.push_back(net::Prefix(
            net::Ipv4Address(10, uint8_t(i / 256), uint8_t(i % 256), 0),
            24));
    return out;
}

} // namespace

TEST(QueryEngine, RunFixedExecutesExactQuota)
{
    SnapshotPublisher publisher;
    loadedPublisher(publisher, 32);

    QueryEngineConfig config;
    config.readers = 3;
    config.queriesPerReader = 5000;
    QueryEngine engine(publisher, routeTargets(32), config);
    ServeReport report = engine.runFixed();

    EXPECT_EQ(report.queries, 3u * 5000u);
    uint64_t per_class = 0;
    for (const QueryClassStats &cls : report.classes) {
        per_class += cls.queries;
        EXPECT_LE(cls.hits, cls.queries);
        // Latency summaries exist for every exercised class.
        if (cls.queries > 0) {
            EXPECT_GT(cls.latencyNs.max, 0u);
        }
    }
    EXPECT_EQ(per_class, report.queries);
    EXPECT_GT(report.queriesPerSec, 0.0);
    EXPECT_GT(report.wallNs, 0u);
    // All queries ran against the loaded epoch.
    EXPECT_EQ(report.firstEpoch, 1u);
    EXPECT_EQ(report.lastEpoch, 1u);
}

TEST(QueryEngine, QueriesAgainstLoadedTableHit)
{
    SnapshotPublisher publisher;
    loadedPublisher(publisher, 64);

    QueryEngineConfig config;
    config.readers = 1;
    config.queriesPerReader = 4000;
    QueryEngine engine(publisher, routeTargets(64), config);
    ServeReport report = engine.runFixed();

    // Targets name real routes, so every class should be answering
    // from the table.
    for (const QueryClassStats &cls : report.classes) {
        if (cls.queries > 0) {
            EXPECT_EQ(cls.hits, cls.queries)
                << workload::queryKindName(cls.kind);
        }
    }
    EXPECT_GT(report.encodedBytes, 0u);
    EXPECT_GT(report.routesScanned, 0u);
}

TEST(QueryEngine, EmptyTableMisses)
{
    SnapshotPublisher publisher; // epoch 0, empty
    QueryEngineConfig config;
    config.readers = 1;
    config.queriesPerReader = 1000;
    QueryEngine engine(publisher, routeTargets(8), config);
    ServeReport report = engine.runFixed();

    EXPECT_EQ(report.queries, 1000u);
    for (const QueryClassStats &cls : report.classes)
        EXPECT_EQ(cls.hits, 0u);
    EXPECT_EQ(report.firstEpoch, 0u);
    EXPECT_EQ(report.routesScanned, 0u);
}

TEST(QueryEngine, PerClassCountsAreSeedDeterministic)
{
    SnapshotPublisher publisher;
    loadedPublisher(publisher, 32);

    QueryEngineConfig config;
    config.readers = 2;
    config.queriesPerReader = 3000;
    config.seed = 99;

    QueryEngine a(publisher, routeTargets(32), config);
    ServeReport ra = a.runFixed();
    QueryEngine b(publisher, routeTargets(32), config);
    ServeReport rb = b.runFixed();

    ASSERT_EQ(ra.classes.size(), rb.classes.size());
    for (size_t i = 0; i < ra.classes.size(); ++i) {
        // The query sequence is deterministic per seed, so the class
        // and hit counts match run to run even though timing differs.
        EXPECT_EQ(ra.classes[i].queries, rb.classes[i].queries);
        EXPECT_EQ(ra.classes[i].hits, rb.classes[i].hits);
    }
    EXPECT_EQ(ra.routesScanned, rb.routesScanned);
    EXPECT_EQ(ra.encodedBytes, rb.encodedBytes);
}

TEST(QueryEngine, ReportIsIdempotentAndAbsorbable)
{
    SnapshotPublisher publisher;
    loadedPublisher(publisher, 16);
    QueryEngineConfig config;
    config.readers = 2;
    config.queriesPerReader = 1000;
    QueryEngine engine(publisher, routeTargets(16), config);
    ServeReport first = engine.runFixed();
    ServeReport second = engine.report();
    EXPECT_EQ(first.queries, second.queries);
    ASSERT_EQ(first.classes.size(), second.classes.size());
    for (size_t i = 0; i < first.classes.size(); ++i) {
        EXPECT_EQ(first.classes[i].queries, second.classes[i].queries);
        EXPECT_EQ(first.classes[i].latencyNs.p99,
                  second.classes[i].latencyNs.p99);
    }

    // Absorbing drains the per-reader registries into the target: the
    // merged histogram count equals the total query count.
    obs::MetricRegistry target;
    engine.absorbInto(target);
    obs::MetricRegistry::Snapshot snap = target.snapshot();
    uint64_t recorded = 0;
    for (const auto &row : snap.histograms)
        if (row.name.rfind("serve.latency.", 0) == 0)
            recorded += row.count;
    EXPECT_EQ(recorded, first.queries);
}

TEST(QueryEngine, PacedModeStopsCleanly)
{
    SnapshotPublisher publisher;
    loadedPublisher(publisher, 16);
    QueryEngineConfig config;
    config.readers = 2;
    QueryEngine engine(publisher, routeTargets(16), config);

    engine.startPaced();
    // Each reader executes its first burst as soon as its thread is
    // scheduled; give the scheduler ample room before stopping.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine.stop();
    ServeReport report = engine.report();
    EXPECT_GE(report.queries, 2u * QueryEngine::pacedBatch);
    EXPECT_EQ(report.firstEpoch, 1u);

    // stop() is idempotent.
    engine.stop();
}

TEST(QueryEngine, StopRightAfterStartServesEveryReader)
{
    // A scenario can converge before a paced reader's thread first
    // runs; that reader must still serve its first batch.
    SnapshotPublisher publisher;
    loadedPublisher(publisher, 16);
    QueryEngineConfig config;
    config.readers = 4;
    QueryEngine engine(publisher, routeTargets(16), config);

    engine.startPaced();
    engine.stop();
    EXPECT_GE(engine.report().queries,
              uint64_t(config.readers) * QueryEngine::pacedBatch);
}
