#include "sim/event_queue.hh"

#include <algorithm>
#include <memory>

#include "net/logging.hh"

namespace bgpbench::sim
{

void
Simulator::push(Event event)
{
    heap_.push_back(std::move(event));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
Simulator::schedule(SimTime at, uint64_t key, Handler handler)
{
    panicIf(at < now_, "event scheduled in the past");
    push(Event{at, key, nextSeq_++, std::move(handler), {}});
}

void
Simulator::scheduleEvery(SimTime period, std::function<bool()> handler)
{
    panicIf(period == 0, "periodic event with zero period");
    // The task lives in one heap block whose only owner is the
    // pending event; re-arming moves that shared_ptr into the next
    // event instead of wrapping the handler in a fresh std::function
    // every recurrence (runFront re-pushes the same block).
    // Drift-free: runFront sets the clock to the firing time before
    // invoking the handler, so anchoring the next firing at
    // now_ + period lands every recurrence on an exact period
    // multiple regardless of what else the handler schedules.
    auto task = std::make_shared<PeriodicTask>(
        PeriodicTask{period, std::move(handler)});
    push(Event{now_ + period, 0, nextSeq_++, {}, std::move(task)});
}

void
Simulator::runFront()
{
    // Move the front event out before running it; the handler may
    // schedule new events (which reallocate the heap storage).
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    now_ = event.time;
    ++executed_;
    if (event.periodic) {
        if (event.periodic->handler()) {
            event.time = now_ + event.periodic->period;
            event.seq = nextSeq_++;
            push(std::move(event));
        }
        return;
    }
    event.handler();
}

bool
Simulator::step()
{
    if (heap_.empty())
        return false;
    runFront();
    return true;
}

void
Simulator::runUntil(SimTime until)
{
    while (!heap_.empty() && heap_.front().time <= until)
        runFront();
    if (now_ < until)
        now_ = until;
}

size_t
Simulator::runBefore(SimTime end)
{
    size_t ran = 0;
    while (!heap_.empty() && heap_.front().time < end) {
        runFront();
        ++ran;
    }
    return ran;
}

void
Simulator::runUntilIdle()
{
    while (step()) {
    }
}

SimTime
Simulator::nextEventTime() const
{
    return heap_.empty() ? simTimeNever : heap_.front().time;
}

} // namespace bgpbench::sim
