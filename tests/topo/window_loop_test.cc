/**
 * @file
 * Tests of the topology engine's window loop and its work-stealing
 * deque. Every jobs value runs the same loop, and every window ends
 * at the causality bound: the earliest instant a busy shard could
 * make a message arrive in another shard. The window sequence is a
 * function of virtual time only, so it is pinned here through the
 * engine's deterministic counters (parallel.windows and
 * topo.window_len_ns).
 */

#include <vector>

#include <gtest/gtest.h>

#include "obs/observability.hh"
#include "obs/views.hh"
#include "topo/scenario_spec.hh"
#include "topo/steal_deque.hh"

using namespace bgpbench;
using topo::StealDeque;

namespace
{

/**
 * A link-flap scenario on a 16-node random graph at @p jobs, run with
 * sinks attached so the engine publishes its counters into @p obs.
 */
void
runFlapScenario(size_t jobs, obs::RunObservability &obs)
{
    topo::ScenarioSpec spec;
    spec.name = "flap-train";
    spec.shape = "random";
    spec.topology = topo::Topology::barabasiAlbert(16, 2, 3);
    spec.simConfig.jobs = jobs;
    spec.simConfig.obs = &obs;
    spec.faults.linkFlapTrain(0, 0, sim::nsFromMs(20), 50, 3,
                              sim::nsFromMs(2), 7);
    topo::ScenarioResult result = topo::ScenarioRunner(spec).run();
    EXPECT_TRUE(result.convergence.converged);
}

} // namespace

TEST(WindowLoop, OneShardOpensOneWindowPerRun)
{
    // jobs 1 runs the window loop on one shard. Nothing is cut, so
    // nothing bounds the window but the limit: each of the scenario's
    // three runToConvergence calls (establish, announce, faults) is
    // one window, and no window has a causality-bounded length. The
    // determinism matrices' jobs 1 baseline is this one-window run
    // with no mailbox.
    obs::RunObservability obs;
    runFlapScenario(1, obs);
    EXPECT_EQ(obs.metrics.gaugeValue(obs::metric::parallelShards), 1.0);
    EXPECT_EQ(obs.metrics.gaugeValue(obs::metric::parallelCutLinks),
              0.0);
    EXPECT_EQ(obs.metrics.gaugeValue(obs::metric::parallelLookaheadNs),
              0.0);
    EXPECT_EQ(obs.metrics.counterValue(obs::metric::parallelWindows),
              3u);
    EXPECT_EQ(obs.metrics.counterValue(obs::metric::topoWindowLenNs),
              0u);
}

TEST(WindowLoop, ShardedWindowsReplayAndSpanTheCutLatency)
{
    // The window sequence depends on virtual time only, so two runs
    // of one spec open the same windows; and no window ends before
    // the smallest cut latency has passed, so their total length is
    // at least windows x lookahead.
    obs::RunObservability first;
    obs::RunObservability second;
    runFlapScenario(4, first);
    runFlapScenario(4, second);
    uint64_t windows =
        first.metrics.counterValue(obs::metric::parallelWindows);
    uint64_t length =
        first.metrics.counterValue(obs::metric::topoWindowLenNs);
    double lookahead =
        first.metrics.gaugeValue(obs::metric::parallelLookaheadNs);
    EXPECT_GT(windows, 3u);
    EXPECT_GT(lookahead, 0.0);
    EXPECT_EQ(second.metrics.counterValue(obs::metric::parallelWindows),
              windows);
    EXPECT_EQ(second.metrics.counterValue(obs::metric::topoWindowLenNs),
              length);
    EXPECT_GE(double(length), double(windows) * lookahead);
}

TEST(StealDeque, OwnerPopsFifoThiefPopsLifo)
{
    StealDeque deque;
    EXPECT_TRUE(deque.empty());
    deque.push(1);
    deque.push(2);
    deque.push(3);
    uint32_t task = 0;
    ASSERT_TRUE(deque.popFront(task));
    EXPECT_EQ(task, 1u);
    ASSERT_TRUE(deque.popBack(task));
    EXPECT_EQ(task, 3u);
    ASSERT_TRUE(deque.popFront(task));
    EXPECT_EQ(task, 2u);
    EXPECT_TRUE(deque.empty());
    EXPECT_FALSE(deque.popFront(task));
    EXPECT_FALSE(deque.popBack(task));
}

TEST(StealDeque, EveryTaskPoppedExactlyOnce)
{
    StealDeque deque;
    for (uint32_t t = 0; t < 100; ++t)
        deque.push(t);
    std::vector<bool> seen(100, false);
    uint32_t task = 0;
    // Alternate owner and thief pops; each id must surface once.
    for (size_t i = 0; i < 100; ++i) {
        bool ok = (i % 2 == 0) ? deque.popFront(task)
                               : deque.popBack(task);
        ASSERT_TRUE(ok);
        ASSERT_LT(task, 100u);
        EXPECT_FALSE(seen[task]);
        seen[task] = true;
    }
    EXPECT_TRUE(deque.empty());
}
