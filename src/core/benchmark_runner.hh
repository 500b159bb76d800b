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

/**
 * Benchmark parameters independent of scenario and platform. A
 * Testbed reads the router's settings and the time cap; the table
 * (prefixCount, seed) and the sinks (obs) are the runner's.
 */
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
 * The paper's testbed (Figure 1) in a fresh simulation: the router
 * under test with Speaker 1 on port 0 and Speaker 2 on port 1. Its
 * damping, session policies, cross-traffic and time cap come from a
 * BenchmarkConfig. Every single-router run builds its world here. A
 * speaker never established stays Idle and costs the router nothing,
 * so a one-speaker run reads as if Speaker 2 were absent.
 */
class Testbed
{
  public:
    Testbed(const router::SystemProfile &profile,
            const BenchmarkConfig &config);

    /**
     * Advance simulated time in 1 ms steps until @p done returns true
     * or the time cap passes.
     * @return False on timeout.
     */
    bool runUntil(const std::function<bool()> &done);

    /**
     * Connect @p peer, then wait until both ends of its session are
     * Established and the router has drained.
     * @return False on timeout.
     */
    bool establish(TestPeer &peer);

    /**
     * Send @p stream from @p peer and wait until it is sent, the
     * router has processed every one of its transactions, and the
     * router has drained; fill @p phase's start, transactions and
     * duration (up to the cap on timeout). A lost message therefore
     * times out instead of reporting a rate.
     * @return False on timeout.
     */
    bool inject(TestPeer &peer,
                std::vector<workload::StreamPacket> stream,
                PhaseResult &phase);

    sim::Simulator &simulator() { return sim_; }
    router::RouterSystem &router() { return router_; }
    TestPeer &speaker1() { return speaker1_; }
    TestPeer &speaker2() { return speaker2_; }

  private:
    sim::SimTime simTimeLimit_;
    // In this order, the peers die before the router they point at
    // and the router before its simulator.
    sim::Simulator sim_;
    router::RouterSystem router_;
    TestPeer speaker1_;
    TestPeer speaker2_;
};

/**
 * Runs benchmark scenarios, each on a fresh Testbed.
 *
 * After run() returns, its testbed remains alive and inspectable
 * (router, speakers, CPU-load series) until the next run() or
 * destruction; this is how the figure benches extract their time
 * series.
 */
class BenchmarkRunner
{
  public:
    BenchmarkRunner(router::SystemProfile profile,
                    BenchmarkConfig config);

    /** Execute @p scenario from a cold start; returns the result. */
    BenchmarkResult run(const Scenario &scenario);

    /** The testbed of the most recent run (valid after run()). */
    Testbed &testbed();
    /** The router of the most recent run. */
    router::RouterSystem &router() { return testbed().router(); }

  private:
    router::SystemProfile profile_;
    BenchmarkConfig config_;
    /** Feeds config_.obs->trace when sinks are attached. */
    obs::Tracer tracer_;

    std::vector<workload::RouteSpec> routes_;
    std::unique_ptr<Testbed> testbed_;
};

} // namespace bgpbench::core

#endif // BGPBENCH_CORE_BENCHMARK_RUNNER_HH
