/**
 * @file
 * Discrete-event simulator core: a time-ordered event queue.
 */

#ifndef BGPBENCH_SIM_EVENT_QUEUE_HH
#define BGPBENCH_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.hh"

namespace bgpbench::sim
{

/**
 * The simulator: an event queue with a virtual clock.
 *
 * Events are ordered by (time, key, sequence). The key is an
 * explicit tie-break rank for events at equal timestamps; events
 * scheduled without one get key 0 and therefore execute in
 * scheduling order (FIFO), which makes plain runs fully
 * deterministic.
 *
 * Keyed scheduling exists for the sharded topology engine: when the
 * same logical event set is split across several queues, a
 * scheduling-order tie-break would depend on which shard scheduled
 * an event first. A content-derived key (e.g. source node and
 * per-source message sequence) restores a total order that every
 * shard layout resolves identically.
 */
class Simulator
{
  public:
    using Handler = std::function<void()>;

    /** Current virtual time. */
    SimTime now() const { return now_; }

    /** Schedule @p handler at absolute time @p at (>= now), key 0. */
    void
    schedule(SimTime at, Handler handler)
    {
        schedule(at, 0, std::move(handler));
    }

    /**
     * Schedule @p handler at @p at with an explicit tie-break
     * @p key: events at equal times run in ascending key order,
     * equal (time, key) pairs in scheduling order.
     */
    void schedule(SimTime at, uint64_t key, Handler handler);

    /** Schedule @p handler @p delay after now. */
    void
    scheduleIn(SimTime delay, Handler handler)
    {
        schedule(now_ + delay, 0, std::move(handler));
    }

    /**
     * Schedule @p handler every @p period, starting one period from
     * now, until it returns false. The recurring closure is stored
     * once and re-armed in place — recurrences allocate nothing.
     */
    void scheduleEvery(SimTime period, std::function<bool()> handler);

    /** Run all events with time <= @p until; clock ends at @p until. */
    void runUntil(SimTime until);

    /**
     * Run all events with time strictly below @p end; the clock stays
     * at the last executed event (it does NOT advance to @p end).
     * This is the conservative-window primitive of the parallel
     * topology engine: a shard drains one lookahead window and leaves
     * boundary events for the next one.
     *
     * @return Number of events executed.
     */
    size_t runBefore(SimTime end);

    /** Run until the queue is empty. */
    void runUntilIdle();

    /** Execute exactly the next event; false if the queue is empty. */
    bool step();

    /** Events waiting. */
    size_t pendingEvents() const { return heap_.size(); }

    /** Total events executed. */
    uint64_t eventsExecuted() const { return executed_; }

    /** Time of the earliest pending event, simTimeNever if none. */
    SimTime nextEventTime() const;

  private:
    /**
     * A self-rescheduling periodic closure. The pending event holds
     * the only owning reference while armed, so the task is freed as
     * soon as its handler stops the recurrence.
     */
    struct PeriodicTask
    {
        SimTime period;
        std::function<bool()> handler;
    };

    struct Event
    {
        SimTime time;
        uint64_t key;
        uint64_t seq;
        Handler handler;
        /** Set instead of handler for scheduleEvery recurrences. */
        std::shared_ptr<PeriodicTask> periodic;
    };

    /**
     * Max-heap "later" order for std::push_heap/pop_heap, so the
     * heap front is the earliest (time, key, seq). The triple is a
     * total order (seq is unique), so the pop sequence — and with it
     * every simulation — is independent of the heap's internal
     * layout.
     */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            if (a.key != b.key)
                return a.key > b.key;
            return a.seq > b.seq;
        }
    };

    void push(Event event);
    /** Pop the front event and run it with the clock at its time. */
    void runFront();

    /** Binary heap via std::push_heap/pop_heap; front at index 0. */
    std::vector<Event> heap_;
    SimTime now_ = 0;
    uint64_t nextSeq_ = 0;
    uint64_t executed_ = 0;
};

} // namespace bgpbench::sim

#endif // BGPBENCH_SIM_EVENT_QUEUE_HH
