/**
 * @file
 * The BGP benchmark: the paper's three-phase methodology (Figure 1)
 * driving one router under test through any of the eight scenarios
 * (Table I), with or without forwarding cross-traffic, reporting the
 * transactions-per-second metric of section III.C.
 */

#ifndef BGPBENCH_CORE_BENCHMARK_RUNNER_HH
#define BGPBENCH_CORE_BENCHMARK_RUNNER_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "bgp/policy.hh"
#include "core/scenario.hh"
#include "core/test_peer.hh"
#include "obs/observability.hh"
#include "router/router_system.hh"
#include "router/system_profiles.hh"
#include "sim/event_queue.hh"
#include "workload/cross_traffic.hh"
#include "workload/route_set.hh"

namespace bgpbench::core
{

/** Benchmark parameters independent of scenario and platform. */
struct BenchmarkConfig
{
    /** Size of the injected routing table. */
    size_t prefixCount = 4000;
    /** Workload generation seed. */
    uint64_t seed = 42;
    /** Offered forwarding load during all phases (0 = none). */
    double crossTrafficMbps = 0.0;
    /** Enable RFC 2439 flap damping on the router under test. */
    bool dampingEnabled = false;
    /** Safety cap on simulated time per run. */
    sim::SimTime simTimeLimit = sim::nsFromSec(36000.0);
    /**
     * Session policies attached to both peers of the router under
     * test (empty = accept unmodified, the paper's configuration).
     * This is how the policy-cost benches re-run the Table III
     * scenarios with route-maps in the hot path.
     */
    bgp::Policy importPolicy;
    bgp::Policy exportPolicy;
    /**
     * Observability sinks for the run, or null (detached — the
     * default). When set, the router-under-test's speaker is bound
     * to the registry and the three benchmark phases (plus session
     * establishment) are recorded as virtual-time trace spans.
     * Timing results are unaffected either way. Must outlive the
     * runner.
     */
    obs::RunObservability *obs = nullptr;
};

/** Timing of one benchmark phase. */
struct PhaseResult
{
    double startSec = 0.0;
    double durationSec = 0.0;
    size_t transactions = 0;

    double
    transactionsPerSecond() const
    {
        return durationSec > 0 ? double(transactions) / durationSec
                               : 0.0;
    }
};

/** Outcome of one scenario run on one system. */
struct BenchmarkResult
{
    Scenario scenario;
    std::string systemName;
    double crossTrafficMbps = 0.0;

    PhaseResult phase1;
    std::optional<PhaseResult> phase2;
    std::optional<PhaseResult> phase3;

    /** The paper's metric: TPS of the scenario's measured phase. */
    double measuredTps = 0.0;
    bool timedOut = false;

    router::DataPlaneCounters dataPlane;
    bgp::SpeakerCounters speakerCounters;
};

/**
 * Runs benchmark scenarios against a fresh simulated router per run.
 *
 * After run() returns, the simulation, router, and test peers remain
 * alive and inspectable (router(), simulator(), speaker counters,
 * CPU-load series) until the next run() or destruction — this is how
 * the figure benches extract their time series.
 */
class BenchmarkRunner
{
  public:
    BenchmarkRunner(router::SystemProfile profile,
                    BenchmarkConfig config);
    ~BenchmarkRunner();

    /** Execute @p scenario from a cold start; returns the result. */
    BenchmarkResult run(const Scenario &scenario);

    /** The router of the most recent run (valid after run()). */
    router::RouterSystem &router();
    /** The simulator of the most recent run. */
    sim::Simulator &simulator();
    /** Speaker 1 of the most recent run. */
    TestPeer &speaker1();
    /** Speaker 2 of the most recent run (valid if the scenario used
     *  one). */
    TestPeer &speaker2();

    const BenchmarkConfig &config() const { return config_; }
    const router::SystemProfile &profile() const { return profile_; }

  private:
    /** Build the simulation world for one run. */
    void setUp(const Scenario &scenario);

    /**
     * Advance simulated time until @p done returns true or the time
     * limit passes.
     * @return False on timeout.
     */
    bool runUntil(const std::function<bool()> &done);

    router::SystemProfile profile_;
    BenchmarkConfig config_;
    /** Feeds config_.obs->trace when sinks are attached. */
    obs::Tracer tracer_;

    std::vector<workload::RouteSpec> routes_;
    std::unique_ptr<sim::Simulator> sim_;
    std::unique_ptr<router::RouterSystem> router_;
    std::unique_ptr<TestPeer> speaker1_;
    std::unique_ptr<TestPeer> speaker2_;
};

} // namespace bgpbench::core

#endif // BGPBENCH_CORE_BENCHMARK_RUNNER_HH
