/**
 * @file
 * MetricRegistry unit tests: counter/gauge/histogram semantics, the
 * order-independence of absorb() (the property the deterministic
 * reports rest on), concurrent updates through cached handles, and
 * the text/CSV/JSON exporters' byte-stability.
 */

#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.hh"
#include "obs/metrics.hh"

using namespace bgpbench;

TEST(Counter, AddsAndResets)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndNoteMax)
{
    obs::Gauge g;
    g.set(5.0);
    EXPECT_EQ(g.value(), 5.0);
    g.noteMax(3.0);
    EXPECT_EQ(g.value(), 5.0);
    g.noteMax(9.5);
    EXPECT_EQ(g.value(), 9.5);
    g.set(1.0); // set is unconditional, unlike noteMax
    EXPECT_EQ(g.value(), 1.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    obs::Histogram h({10, 100, 1000});
    h.record(5);
    h.record(10); // inclusive upper bound
    h.record(11);
    h.record(1000);
    h.record(5000); // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 5u + 10 + 11 + 1000 + 5000);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u); // overflow slot
    EXPECT_DOUBLE_EQ(h.mean(), double(h.sum()) / 5.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
}

TEST(Histogram, TracksExactMaximum)
{
    obs::Histogram h({10, 100});
    EXPECT_EQ(h.max(), 0u);
    h.record(7);
    h.record(93);
    EXPECT_EQ(h.max(), 93u);
    h.record(40000); // overflow sample becomes the max
    EXPECT_EQ(h.max(), 40000u);
    EXPECT_EQ(h.overflowCount(), 1u);
    h.record(12);
    EXPECT_EQ(h.max(), 40000u);
    h.reset();
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.overflowCount(), 0u);
}

TEST(Histogram, RecordTimesEqualsThatManyRecords)
{
    const std::vector<uint64_t> bounds = {1, 2, 4, 8};
    obs::Histogram folded(bounds);
    obs::Histogram single(bounds);
    // Samples in the first, a middle, the last and the overflow
    // bucket, a repeat of a sample, and zero records of a new maximum.
    const std::pair<uint64_t, uint64_t> runs[] = {
        {0, 3}, {3, 5}, {8, 1}, {3, 2}, {40, 4}, {9000, 0}};
    for (auto [sample, times] : runs) {
        folded.record(sample, times);
        for (uint64_t i = 0; i < times; ++i)
            single.record(sample);
    }
    for (size_t i = 0; i <= bounds.size(); ++i)
        EXPECT_EQ(folded.bucketCount(i), single.bucketCount(i)) << i;
    EXPECT_EQ(folded.count(), 15u);
    EXPECT_EQ(folded.count(), single.count());
    EXPECT_EQ(folded.sum(), 3u * 7 + 8 + 40 * 4);
    EXPECT_EQ(folded.sum(), single.sum());
    EXPECT_EQ(folded.max(), 40u);
    EXPECT_EQ(folded.max(), single.max());
}

TEST(Histogram, QuantilesQuoteBucketBounds)
{
    obs::MetricRegistry registry;
    obs::Histogram &h = registry.histogram("lat", {10, 100, 1000});
    // 90 samples <= 10, 9 in (10, 100], 1 in (100, 1000].
    for (int i = 0; i < 90; ++i)
        h.record(5);
    for (int i = 0; i < 9; ++i)
        h.record(50);
    h.record(400);

    auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.histograms.size(), 1u);
    const auto &row = snapshot.histograms[0];
    // A quantile is the inclusive upper bound of its bucket.
    EXPECT_EQ(obs::histogramQuantile(row, 0.50), 10u);
    EXPECT_EQ(obs::histogramQuantile(row, 0.90), 10u);
    EXPECT_EQ(obs::histogramQuantile(row, 0.95), 100u);
    // The top bucket's bound (1000) exceeds the exact maximum, so
    // the tracked max is quoted instead.
    EXPECT_EQ(obs::histogramQuantile(row, 0.999), 400u);

    obs::HistogramSummary summary = obs::summarizeHistogram(row);
    EXPECT_EQ(summary.p50, 10u);
    EXPECT_EQ(summary.p90, 10u);
    // The 99th smallest of 100 samples is the last one inside the
    // (10, 100] bucket.
    EXPECT_EQ(summary.p99, 100u);
    EXPECT_EQ(summary.max, 400u);
}

TEST(Histogram, OverflowQuantileQuotesTrackedMax)
{
    obs::MetricRegistry registry;
    obs::Histogram &h = registry.histogram("lat", {10});
    h.record(5);
    h.record(777777); // overflow
    auto row = registry.snapshot().histograms[0];
    EXPECT_EQ(row.overflow(), 1u);
    EXPECT_EQ(row.max, 777777u);
    // The overflow bucket has no bound; the exact max stands in.
    EXPECT_EQ(obs::histogramQuantile(row, 0.99), 777777u);

    // An empty histogram summarises to zeros.
    obs::MetricRegistry empty_registry;
    empty_registry.histogram("lat", {10});
    auto empty_row = empty_registry.snapshot().histograms[0];
    obs::HistogramSummary summary = obs::summarizeHistogram(empty_row);
    EXPECT_EQ(summary.p50, 0u);
    EXPECT_EQ(summary.max, 0u);
}

TEST(Histogram, AbsorbMergesMaxOrderIndependently)
{
    obs::MetricRegistry a, b;
    a.histogram("lat", {10, 100}).record(99999);
    b.histogram("lat", {10, 100}).record(5);
    a.absorb(b);
    auto row = a.snapshot().histograms[0];
    EXPECT_EQ(row.count, 2u);
    EXPECT_EQ(row.max, 99999u);

    // Absorbing the large sample *into* the small side gives the
    // same max (merge takes the larger of the two).
    obs::MetricRegistry c, d;
    c.histogram("lat", {10, 100}).record(5);
    d.histogram("lat", {10, 100}).record(99999);
    c.absorb(d);
    EXPECT_EQ(c.snapshot().histograms[0].max, 99999u);
}

TEST(MetricExport, HistogramPercentileRows)
{
    obs::MetricRegistry registry;
    obs::Histogram &h = registry.histogram("lat", {10, 100});
    for (int i = 0; i < 99; ++i)
        h.record(5);
    h.record(123456); // overflow; also the max
    auto snapshot = registry.snapshot();

    std::ostringstream text;
    obs::printMetricsText(text, snapshot);
    EXPECT_NE(text.str().find("lat [overflow]"), std::string::npos);
    EXPECT_NE(text.str().find("lat [p50]"), std::string::npos);
    EXPECT_NE(text.str().find("lat [p90]"), std::string::npos);
    EXPECT_NE(text.str().find("lat [p99]"), std::string::npos);
    EXPECT_NE(text.str().find("lat [max]"), std::string::npos);
    EXPECT_NE(text.str().find("123456"), std::string::npos);

    std::ostringstream csv;
    obs::printMetricsCsv(csv, snapshot);
    EXPECT_NE(csv.str().find("histogram,lat,overflow,1"),
              std::string::npos);
    EXPECT_NE(csv.str().find("histogram,lat,p50,10"),
              std::string::npos);
    EXPECT_NE(csv.str().find("histogram,lat,max,123456"),
              std::string::npos);

    std::ostringstream json;
    obs::writeMetricsJson(json, snapshot);
    EXPECT_NE(json.str().find("\"overflow\": 1"), std::string::npos);
    EXPECT_NE(json.str().find("\"p50\": 10"), std::string::npos);
    EXPECT_NE(json.str().find("\"p99\":"), std::string::npos);
    EXPECT_NE(json.str().find("\"max\": 123456"), std::string::npos);
}

TEST(MetricRegistry, CreateOrGetReturnsSameInstance)
{
    obs::MetricRegistry registry;
    obs::Counter &a = registry.counter("x");
    obs::Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(registry.counterValue("x"), 3u);
    // Unregistered names read as zero rather than registering.
    EXPECT_EQ(registry.counterValue("never"), 0u);
    EXPECT_EQ(registry.gaugeValue("never"), 0.0);
}

namespace
{

/** A shard-like registry with a fixed set of updates applied. */
void
populate(obs::MetricRegistry &registry, uint64_t events,
         double peak, uint64_t sample)
{
    registry.counter("events").add(events);
    registry.gauge("peak").noteMax(peak);
    registry.histogram("lat", {10, 100}).record(sample);
}

std::string
exportAll(const obs::MetricRegistry &registry)
{
    std::ostringstream os;
    auto snapshot = registry.snapshot();
    obs::printMetricsText(os, snapshot);
    obs::printMetricsCsv(os, snapshot);
    obs::writeMetricsJson(os, snapshot);
    return os.str();
}

} // namespace

TEST(MetricRegistry, AbsorbIsOrderIndependent)
{
    // Fold three shard registries into a run registry in two
    // different orders; every exported byte must match.
    auto build = [](const std::vector<int> &order) {
        std::vector<obs::MetricRegistry> shards(3);
        populate(shards[0], 10, 4.0, 5);
        populate(shards[1], 20, 9.0, 50);
        populate(shards[2], 30, 2.0, 500);
        obs::MetricRegistry run;
        for (int i : order)
            run.absorb(shards[size_t(i)]);
        return exportAll(run);
    };
    std::string forward = build({0, 1, 2});
    std::string backward = build({2, 1, 0});
    EXPECT_EQ(forward, backward);
    EXPECT_FALSE(forward.empty());
}

TEST(MetricRegistry, AbsorbSumsCountersAndMaxesGauges)
{
    obs::MetricRegistry a, b;
    populate(a, 10, 4.0, 5);
    populate(b, 20, 9.0, 500);
    a.absorb(b);
    EXPECT_EQ(a.counterValue("events"), 30u);
    EXPECT_EQ(a.gaugeValue("peak"), 9.0);
    auto snapshot = a.snapshot();
    ASSERT_EQ(snapshot.histograms.size(), 1u);
    EXPECT_EQ(snapshot.histograms[0].count, 2u);
    EXPECT_EQ(snapshot.histograms[0].sum, 505u);
    // The source was drained.
    EXPECT_EQ(b.counterValue("events"), 0u);
    EXPECT_TRUE(b.snapshot().histograms[0].count == 0u);
}

TEST(MetricRegistry, ConcurrentUpdatesThroughCachedHandles)
{
    // The TSan target runs this too: registration from several
    // threads plus relaxed updates through cached handles must be
    // race-free and lose no increments.
    constexpr size_t threads = 8;
    constexpr uint64_t perThread = 20000;
    obs::MetricRegistry registry;
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&registry, t] {
            obs::Counter &shared = registry.counter("shared");
            obs::Counter &mine =
                registry.counter("thread." + std::to_string(t));
            obs::Histogram &lat =
                registry.histogram("lat", {10, 100, 1000});
            obs::Gauge &peak = registry.gauge("peak");
            for (uint64_t i = 0; i < perThread; ++i) {
                shared.add();
                mine.add();
                lat.record(i % 2000);
                peak.noteMax(double(i));
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    EXPECT_EQ(registry.counterValue("shared"), threads * perThread);
    for (size_t t = 0; t < threads; ++t) {
        EXPECT_EQ(registry.counterValue("thread." + std::to_string(t)),
                  perThread);
    }
    EXPECT_EQ(registry.gaugeValue("peak"), double(perThread - 1));
    auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.histograms.size(), 1u);
    EXPECT_EQ(snapshot.histograms[0].count, threads * perThread);
}

TEST(MetricRegistry, SnapshotSortsByName)
{
    obs::MetricRegistry registry;
    registry.counter("zeta").add(1);
    registry.counter("alpha").add(2);
    registry.counter("mid").add(3);
    auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.counters.size(), 3u);
    EXPECT_EQ(snapshot.counters[0].first, "alpha");
    EXPECT_EQ(snapshot.counters[1].first, "mid");
    EXPECT_EQ(snapshot.counters[2].first, "zeta");
}

TEST(MetricExport, FormatsParseAndAgree)
{
    obs::ExportFormat format = obs::ExportFormat::Text;
    EXPECT_TRUE(obs::parseExportFormat("text", format));
    EXPECT_EQ(format, obs::ExportFormat::Text);
    EXPECT_TRUE(obs::parseExportFormat("csv", format));
    EXPECT_EQ(format, obs::ExportFormat::Csv);
    EXPECT_TRUE(obs::parseExportFormat("json", format));
    EXPECT_EQ(format, obs::ExportFormat::Json);
    EXPECT_FALSE(obs::parseExportFormat("xml", format));

    obs::MetricRegistry registry;
    populate(registry, 7, 3.5, 42);
    auto snapshot = registry.snapshot();
    std::ostringstream text, dispatched;
    obs::printMetricsText(text, snapshot);
    obs::exportMetrics(dispatched, snapshot, obs::ExportFormat::Text);
    EXPECT_EQ(dispatched.str(), text.str());
    EXPECT_NE(text.str().find("events"), std::string::npos);

    std::ostringstream csv;
    obs::printMetricsCsv(csv, snapshot);
    EXPECT_NE(csv.str().find("counter,events,,7"),
              std::string::npos);

    std::ostringstream json;
    obs::writeMetricsJson(json, snapshot);
    EXPECT_EQ(json.str().front(), '{');
    EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
}
