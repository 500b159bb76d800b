/**
 * @file
 * A schedulable process consuming virtual CPU cycles.
 *
 * The simulated routers execute real protocol computation, but pace
 * it with virtual time: each unit of work is posted to a SimProcess
 * as a job carrying a cycle cost and a side-effect closure. The
 * closure runs only when the scheduler has granted the full cost, so
 * protocol state evolves at the speed of the simulated CPU, in
 * arrival order.
 */

#ifndef BGPBENCH_SIM_PROCESS_HH
#define BGPBENCH_SIM_PROCESS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "sim/time.hh"

namespace bgpbench::sim
{

/** Scheduling class of a process; lower value preempts higher. */
namespace priority
{
/** Hardware interrupt context: preempts everything. */
constexpr int interrupt = 0;
/** Kernel softirq / bottom halves (forwarding, FIB writes). */
constexpr int kernel = 1;
/** Ordinary user-space processes (the routing suite). */
constexpr int user = 10;
} // namespace priority

/**
 * One schedulable entity: a named FIFO queue of cycle-costed jobs.
 */
class SimProcess
{
  public:
    struct Config
    {
        std::string name;
        int priority = priority::user;
        /** Pin to a logical CPU (-1 = migratable). */
        int pinnedCpu = -1;
    };

    struct Counters
    {
        uint64_t cyclesConsumed = 0;
        uint64_t jobsCompleted = 0;
    };

    explicit SimProcess(Config config)
        : config_(std::move(config))
    {}

    const std::string &name() const { return config_.name; }
    int schedPriority() const { return config_.priority; }
    int pinnedCpu() const { return config_.pinnedCpu; }

    /**
     * Enqueue work.
     *
     * @param cycles Cost in CPU cycles.
     * @param apply Side effect executed when the cost has been paid;
     *        may post further jobs (IPC) including to other processes.
     */
    void
    post(uint64_t cycles, std::function<void()> apply = {})
    {
        jobs_.push_back(Job{cycles, std::move(apply)});
    }

    /** True if the process has work wanting CPU. */
    bool runnable() const { return !jobs_.empty(); }

    /** Cycles of queued (unfinished) work. */
    uint64_t
    backlogCycles() const
    {
        uint64_t total = 0;
        for (const auto &job : jobs_)
            total += job.remaining;
        return total;
    }

    /**
     * Consume up to @p budget cycles of queued work, executing the
     * apply closures of jobs that complete.
     *
     * @return Cycles actually consumed (<= budget).
     */
    uint64_t grant(uint64_t budget);

    /** Drop all queued work without executing it. */
    void
    clearBacklog()
    {
        jobs_.clear();
    }

    const Counters &counters() const { return counters_; }

    /**
     * Cycles consumed since the last call to takeIntervalCycles();
     * used by the CPU-load tracker.
     */
    uint64_t
    takeIntervalCycles()
    {
        uint64_t cycles = intervalCycles_;
        intervalCycles_ = 0;
        return cycles;
    }

  private:
    struct Job
    {
        uint64_t remaining;
        std::function<void()> apply;
    };

    Config config_;
    std::deque<Job> jobs_;
    Counters counters_;
    uint64_t intervalCycles_ = 0;
};

} // namespace bgpbench::sim

#endif // BGPBENCH_SIM_PROCESS_HH
