/**
 * @file
 * Tests of the host-time benchmark itself: the percentile rule, the
 * histogram behind it, the metric and workload names, and a tiny run
 * of every workload that must pass its own output checks.
 */

#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>

#include <gtest/gtest.h>

#include "harness.hh"
#include "stats.hh"

using namespace hostbench;

TEST(PercentileRule, AsksForPercentileWithTenSamplesBeyond)
{
    EXPECT_DOUBLE_EQ(reportablePercentile(1000, 0.99), 0.99);
    EXPECT_DOUBLE_EQ(reportablePercentile(100000, 0.99), 0.99);
    EXPECT_DOUBLE_EQ(reportablePercentile(500, 0.99), 0.98);
    EXPECT_DOUBLE_EQ(reportablePercentile(100, 0.99), 0.90);
    EXPECT_DOUBLE_EQ(reportablePercentile(25, 0.99), 0.60);
    EXPECT_DOUBLE_EQ(reportablePercentile(1000, 0.5), 0.5);
}

TEST(PercentileRule, FallsBackToTheMedianForFewSamples)
{
    EXPECT_DOUBLE_EQ(reportablePercentile(20, 0.99), 0.5);
    EXPECT_DOUBLE_EQ(reportablePercentile(5, 0.99), 0.5);
    EXPECT_DOUBLE_EQ(reportablePercentile(0, 0.99), 0.5);
}

TEST(LatencyHistogram, QuantilesTrackTheSamples)
{
    LatencyHistogram histogram;
    for (uint64_t v = 1; v <= 100000; ++v)
        histogram.record(v * 10);
    EXPECT_EQ(histogram.count(), 100000u);
    EXPECT_EQ(histogram.max(), 1000000u);
    EXPECT_NEAR(histogram.quantile(0.5), 500000.0, 500000.0 * 0.005);
    EXPECT_NEAR(histogram.quantile(0.99), 990000.0, 990000.0 * 0.005);
    Percentile tail = histogram.tail(0.99);
    EXPECT_DOUBLE_EQ(tail.q, 0.99);
    EXPECT_EQ(tail.count, 100000u);
}

TEST(LatencyHistogram, SmallValuesAreExactAndMergeAdds)
{
    LatencyHistogram a;
    LatencyHistogram b;
    for (int i = 0; i < 10; ++i)
        a.record(7);
    for (int i = 0; i < 10; ++i)
        b.record(200);
    a.merge(b);
    EXPECT_EQ(a.count(), 20u);
    EXPECT_NEAR(a.quantile(0.25), 7.5, 0.5);
    EXPECT_NEAR(a.quantile(0.75), 200.5, 0.5);
    Percentile tail = a.tail(0.99);
    EXPECT_DOUBLE_EQ(tail.q, 0.5);
    EXPECT_EQ(tail.count, 20u);
}

TEST(Names, MatchTheAllowedCharactersAndBenchmarkJson)
{
    const std::regex allowed("[A-Za-z0-9_.-]+");
    std::ifstream file(HOSTBENCH_JSON);
    std::stringstream text;
    text << file.rdbuf();
    const std::string json = text.str();
    ASSERT_FALSE(json.empty()) << HOSTBENCH_JSON;

    auto listed = [&json](const std::string &name) {
        return json.find("\"" + name + "\"") != std::string::npos;
    };
    for (const std::string &name : workloadNames()) {
        EXPECT_TRUE(std::regex_match(name, allowed)) << name;
        EXPECT_TRUE(listed(name)) << name;
    }
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &spec : *list) {
            EXPECT_TRUE(std::regex_match(std::string(spec.name), allowed))
                << spec.name;
            EXPECT_TRUE(listed(spec.name)) << spec.name;
        }
    }
}

namespace
{

Options
tiny(const std::string &workload, bool trace)
{
    Options options;
    options.workload = workload;
    options.seed = 7;
    options.seconds = 0.5;
    options.scale = 0.02;
    options.trace = trace;
    options.traceDir = testing::TempDir();
    return options;
}

/** The per-layer metrics each workload exercises, so none may read 0. */
std::vector<std::string>
exercisedLayerMetrics(const std::string &workload)
{
    std::vector<std::string> names = {
        "bgp.decisions_per_txn",  "bgp.out_updates_per_in_update",
        "bgp.prefixes_per_out_update", "fib.updates_per_txn",
        "serve.lookup_ns_p50",    "serve.best_path_ns_p50",
        "serve.lookup_trie_nodes", "workload.gen_s",
        "trace_overhead_tps",     "trace_overhead_converge_s",
    };
    if (workload == "topo") {
        for (const char *name :
             {"topo.windows", "topo.mean_window_ns", "topo.shards",
              "topo.cut_links", "topo.shard_busy_s_max",
              "topo.shard_busy_s_mean", "topo.updates"})
            names.push_back(name);
        return names;
    }
    for (const char *name :
         {"bgp.receive_busy_s", "bgp.import_decide_s", "bgp.export_s",
          "bgp.out_bytes_per_prefix", "bgp.rib_bytes_per_route",
          "bgp.intern_hit_ratio", "fib.install_s",
          "serve.snapshot_build_ms_p50", "serve.snapshot_build_ms_max",
          "serve.snapshots"})
        names.push_back(name);
    if (workload == "churn")
        names.push_back("bgp.policy_evals");
    return names;
}

void
expectPasses(const Result &result)
{
    EXPECT_TRUE(result.correct());
    EXPECT_GT(result.attempted(), 0u);
    EXPECT_EQ(result.failed(), 0u);
    for (const std::string &failure : result.failures())
        ADD_FAILURE() << failure;
}

} // namespace

class TinyRun : public testing::TestWithParam<std::string>
{};

TEST_P(TinyRun, PassesItsOutputChecks)
{
    Result result = runWorkload(tiny(GetParam(), false));
    expectPasses(result);
    for (const MetricSpec &spec : endToEndMetrics())
        EXPECT_GT(result.get(spec.name), 0.0) << spec.name;
}

TEST_P(TinyRun, TracedRunMeasuresEveryLayerItExercises)
{
    Result result = runWorkload(tiny(GetParam(), true));
    expectPasses(result);
    for (const std::string &name : exercisedLayerMetrics(GetParam()))
        EXPECT_GT(result.get(name), 0.0) << name;
    if (GetParam() != "topo") {
        double busy = result.get("bgp.receive_busy_s");
        double parts = result.get("bgp.import_decide_s") +
                       result.get("bgp.export_s");
        EXPECT_GT(busy, 0.0);
        EXPECT_LE(parts, busy);
        EXPECT_GE(parts, busy * 0.95);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyRun,
                         testing::Values("fullfeed", "churn", "topo"));
