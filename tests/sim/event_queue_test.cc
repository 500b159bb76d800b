/**
 * @file
 * Tests for the discrete-event simulator core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/logging.hh"
#include "sim/event_queue.hh"

using namespace bgpbench;
using sim::SimTime;
using sim::Simulator;

TEST(Simulator, StartsAtZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsRunInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&]() { order.push_back(3); });
    sim.schedule(10, [&]() { order.push_back(1); });
    sim.schedule(20, [&]() { order.push_back(2); });
    sim.runUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
    EXPECT_EQ(sim.eventsExecuted(), 3u);
}

TEST(Simulator, EqualTimestampsRunFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.schedule(5, [&order, i]() { order.push_back(i); });
    sim.runUntilIdle();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[size_t(i)], i);
}

TEST(Simulator, SchedulingInThePastPanics)
{
    Simulator sim;
    sim.schedule(10, []() {});
    sim.runUntilIdle();
    EXPECT_THROW(sim.schedule(5, []() {}), PanicError);
}

TEST(Simulator, HandlersMayScheduleMoreEvents)
{
    Simulator sim;
    int count = 0;
    std::function<void()> chain = [&]() {
        ++count;
        if (count < 5)
            sim.scheduleIn(10, chain);
    };
    sim.scheduleIn(10, chain);
    sim.runUntilIdle();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, RunUntilStopsAtBoundary)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(10, [&]() { ++fired; });
    sim.schedule(20, [&]() { ++fired; });
    sim.schedule(30, [&]() { ++fired; });

    sim.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), 20u);
    EXPECT_EQ(sim.nextEventTime(), 30u);

    // Advancing with no events in range moves the clock only.
    sim.runUntil(25);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), 25u);
}

TEST(Simulator, ScheduleEveryRepeatsUntilFalse)
{
    Simulator sim;
    int ticks = 0;
    sim.scheduleEvery(100, [&]() {
        ++ticks;
        return ticks < 4;
    });
    sim.runUntilIdle();
    EXPECT_EQ(ticks, 4);
    EXPECT_EQ(sim.now(), 400u);
}

TEST(Simulator, ScheduleEveryStaysOnPeriodGrid)
{
    // Regression test for periodic-timer drift: every firing must
    // land on an exact multiple of the period, even when the handler
    // schedules other work between firings. A drifting
    // implementation (anchoring on anything but the firing time)
    // would accumulate offset over many periods.
    Simulator sim;
    std::vector<SimTime> firings;
    int count = 0;
    sim.scheduleEvery(7, [&]() {
        firings.push_back(sim.now());
        sim.scheduleIn(3, []() {});
        return ++count < 1000;
    });
    sim.runUntilIdle();
    ASSERT_EQ(firings.size(), 1000u);
    for (size_t i = 0; i < firings.size(); ++i)
        EXPECT_EQ(firings[i], 7u * (i + 1));
}

TEST(Simulator, ScheduleEveryZeroPeriodPanics)
{
    Simulator sim;
    EXPECT_THROW(sim.scheduleEvery(0, []() { return false; }),
                 PanicError);
}

TEST(Simulator, NextEventTimeWhenEmpty)
{
    Simulator sim;
    EXPECT_EQ(sim.nextEventTime(), sim::simTimeNever);
}

TEST(Simulator, StepExecutesExactlyOne)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1, [&]() { ++fired; });
    sim.schedule(2, [&]() { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 1u);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, KeyedEventsOrderByKeyAtEqualTime)
{
    // Scheduling order is 3, 1, 2 — execution must follow the keys,
    // not the insertion order.
    Simulator sim;
    std::vector<int> order;
    sim.schedule(10, 3, [&]() { order.push_back(3); });
    sim.schedule(10, 1, [&]() { order.push_back(1); });
    sim.schedule(10, 2, [&]() { order.push_back(2); });
    sim.runUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, DistinctTimeKeyPairsRunInOneOrderForEveryPushOrder)
{
    // The topology engine's window barrier hands cross-shard messages
    // to their destination queue in whatever order the outboxes hold
    // them; each message has its own non-zero key. So the queue alone
    // must fix the run order: (time, key) ascending, however the
    // events were pushed. Few distinct times make ties the rule.
    struct Keyed
    {
        SimTime time;
        uint64_t key;
        size_t label;
    };
    std::mt19937_64 draw(7);
    std::vector<Keyed> events;
    for (size_t i = 0; i < 300; ++i) {
        uint64_t source = draw() % 16 + 1;
        events.push_back(
            Keyed{SimTime(draw() % 12), source << 44 | (i + 1), i});
    }
    std::vector<Keyed> sorted = events;
    std::sort(sorted.begin(), sorted.end(),
              [](const Keyed &a, const Keyed &b) {
                  return std::pair(a.time, a.key) <
                         std::pair(b.time, b.key);
              });
    std::vector<size_t> expected;
    for (const Keyed &event : sorted)
        expected.push_back(event.label);

    for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("shuffle seed " + std::to_string(seed));
        std::vector<Keyed> pushed = events;
        std::shuffle(pushed.begin(), pushed.end(),
                     std::mt19937_64(seed));
        Simulator sim;
        std::vector<size_t> order;
        for (const Keyed &event : pushed) {
            sim.schedule(event.time, event.key,
                         [&order, label = event.label]() {
                             order.push_back(label);
                         });
        }
        sim.runUntilIdle();
        EXPECT_EQ(order, expected);
    }
}

TEST(Simulator, KeyZeroRunsBeforeKeyedEvents)
{
    // Key 0 is the rank of scenario/fault events; at equal times they
    // precede every message event (whose keys are never zero).
    Simulator sim;
    std::vector<int> order;
    sim.schedule(10, 7, [&]() { order.push_back(7); });
    sim.schedule(10, [&]() { order.push_back(0); });
    sim.runUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{0, 7}));
}

TEST(Simulator, EqualKeysFallBackToSchedulingOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(10, 5, [&]() { order.push_back(1); });
    sim.schedule(10, 5, [&]() { order.push_back(2); });
    sim.schedule(10, 5, [&]() { order.push_back(3); });
    sim.runUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunBeforeStopsStrictlyBelowEnd)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(5, [&]() { ++fired; });
    sim.schedule(10, [&]() { ++fired; });
    sim.schedule(15, [&]() { ++fired; });

    // Strict bound: the event AT the window end stays pending, and
    // the clock stays at the last executed event — the conservative
    // window contract of the parallel engine.
    EXPECT_EQ(sim.runBefore(10), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 5u);
    EXPECT_EQ(sim.nextEventTime(), 10u);

    EXPECT_EQ(sim.runBefore(11), 1u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), 10u);

    EXPECT_EQ(sim.runBefore(10), 0u);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, RunBeforeRunsEventsSpawnedInsideTheWindow)
{
    Simulator sim;
    std::vector<SimTime> fired;
    sim.schedule(2, [&]() {
        fired.push_back(sim.now());
        sim.schedule(4, [&]() { fired.push_back(sim.now()); });
        sim.schedule(30, [&]() { fired.push_back(sim.now()); });
    });
    EXPECT_EQ(sim.runBefore(10), 2u);
    EXPECT_EQ(fired, (std::vector<SimTime>{2, 4}));
    EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(Simulator, ScheduleEveryKeepsOneTaskAcrossRecurrences)
{
    // The periodic closure must observe state captured once, across
    // many firings (the task is stored once and re-armed in place,
    // never re-wrapped).
    Simulator sim;
    int ticks = 0;
    int *captured = &ticks;
    sim.scheduleEvery(3, [captured]() { return ++*captured < 1000; });
    sim.runUntilIdle();
    EXPECT_EQ(ticks, 1000);
    EXPECT_EQ(sim.now(), 3000u);
    EXPECT_EQ(sim.eventsExecuted(), 1000u);
}

TEST(SimTime, Conversions)
{
    EXPECT_EQ(sim::nsFromUs(3), 3000u);
    EXPECT_EQ(sim::nsFromMs(2), 2'000'000u);
    EXPECT_EQ(sim::nsFromSec(1.5), 1'500'000'000u);
    EXPECT_DOUBLE_EQ(sim::toSeconds(2'500'000'000ull), 2.5);
}
