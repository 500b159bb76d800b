/**
 * @file
 * Unit tests for the adaptive window controller and the work-stealing
 * deque. The controller's determinism contract — the target-length
 * sequence is a pure function of the observation sequence — is what
 * lets adaptive parallel runs stay byte-identical, so it is pinned
 * here directly, including the exact replay of an L-sequence.
 */

#include <vector>

#include <gtest/gtest.h>

#include "topo/steal_deque.hh"
#include "topo/sync_window.hh"

using namespace bgpbench;
using topo::StealDeque;
using topo::WindowController;

TEST(WindowController, StartsAtCapWhenAdaptive)
{
    WindowController ctl(1000, 4);
    EXPECT_EQ(ctl.floorNs(), 1000u);
    EXPECT_EQ(ctl.capNs(), 1000u << 10);
    EXPECT_EQ(ctl.targetNs(), ctl.capNs());
}

TEST(WindowController, BurstsShrinkMonotonicallyToFloor)
{
    WindowController ctl(1000, 4);
    uint64_t burst = ctl.burstThreshold() + 1;
    sim::SimTime previous = ctl.targetNs();
    // Sustained bursts halve the target every window until it sits
    // on the floor, and never move it upward in between.
    while (ctl.targetNs() > ctl.floorNs()) {
        ctl.observe(burst);
        EXPECT_LE(ctl.targetNs(), previous);
        EXPECT_GE(ctl.targetNs(), ctl.floorNs());
        previous = ctl.targetNs();
    }
    ctl.observe(burst);
    EXPECT_EQ(ctl.targetNs(), ctl.floorNs());
}

TEST(WindowController, SilenceGrowsBackToCap)
{
    WindowController ctl(1000, 4);
    while (ctl.targetNs() > ctl.floorNs())
        ctl.observe(ctl.burstThreshold() + 1);
    // Quiet windows double the target; the cap is a hard ceiling.
    sim::SimTime previous = ctl.targetNs();
    while (ctl.targetNs() < ctl.capNs()) {
        ctl.observe(0);
        EXPECT_GE(ctl.targetNs(), previous);
        previous = ctl.targetNs();
    }
    ctl.observe(0);
    EXPECT_EQ(ctl.targetNs(), ctl.capNs());
}

TEST(WindowController, ModerateTrafficHoldsTarget)
{
    WindowController ctl(1000, 4);
    ctl.observe(ctl.burstThreshold() + 1);
    sim::SimTime held = ctl.targetNs();
    // Between silence and burst the target holds steady.
    ctl.observe(1);
    ctl.observe(ctl.burstThreshold());
    EXPECT_EQ(ctl.targetNs(), held);
}

TEST(WindowController, BurstThresholdScalesWithCutWidth)
{
    EXPECT_EQ(WindowController(10, 0).burstThreshold(), 64u);
    EXPECT_EQ(WindowController(10, 16).burstThreshold(), 64u);
    EXPECT_EQ(WindowController(10, 100).burstThreshold(), 400u);
}

TEST(WindowController, IdenticalObservationsReplayIdenticalTargets)
{
    // The determinism contract: the same observation sequence yields
    // the same target sequence, step by step.
    std::vector<uint64_t> observations = {0,   500, 0, 100000, 100000,
                                          0,   0,   3, 100000, 0,
                                          999, 0,   0, 100000, 64};
    WindowController a(2000, 8);
    WindowController b(2000, 8);
    for (uint64_t n : observations) {
        a.observe(n);
        b.observe(n);
        ASSERT_EQ(a.targetNs(), b.targetNs());
    }
}

TEST(WindowController, ZeroFloorStaysZero)
{
    // A zero floor (no cut, or a degenerate zero-latency cut the
    // engine refuses anyway) must not blow up into a nonzero cap.
    WindowController ctl(0, 0);
    EXPECT_EQ(ctl.capNs(), 0u);
    EXPECT_EQ(ctl.targetNs(), 0u);
    ctl.observe(0);
    EXPECT_EQ(ctl.targetNs(), 0u);
}

TEST(WindowController, HugeFloorSaturatesInsteadOfOverflowing)
{
    sim::SimTime floor = sim::simTimeNever >> 2;
    WindowController ctl(floor, 1);
    EXPECT_GE(ctl.capNs(), floor);
    EXPECT_LT(ctl.capNs(), sim::simTimeNever);
    // Doubling from a near-saturated target must stay clamped.
    ctl.observe(0);
    ctl.observe(0);
    EXPECT_EQ(ctl.targetNs(), ctl.capNs());
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
