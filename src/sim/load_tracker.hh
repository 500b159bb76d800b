/**
 * @file
 * Per-process CPU-load sampling, the instrumentation behind the
 * paper's Figures 3, 4, and 6 (CPU load of each XORP process and of
 * interrupt/system/user contexts over time).
 */

#ifndef BGPBENCH_SIM_LOAD_TRACKER_HH
#define BGPBENCH_SIM_LOAD_TRACKER_HH

#include <memory>
#include <vector>

#include "sim/process.hh"
#include "sim/time.hh"
#include "stats/time_series.hh"

namespace bgpbench::sim
{

/**
 * Samples the cycles each tracked process consumed per interval and
 * converts them to percent-of-one-core load, as `top` would report.
 */
class CpuLoadTracker
{
  public:
    /**
     * @param core_cycles_per_second Capacity of one core; 100% load
     *        means a full core consumed.
     * @param interval_seconds Sampling interval.
     */
    CpuLoadTracker(double core_cycles_per_second,
                   double interval_seconds = 1.0)
        : coreCyclesPerSecond_(core_cycles_per_second),
          intervalSeconds_(interval_seconds)
    {}

    /** Track @p process; must outlive the tracker. */
    void
    track(SimProcess *process)
    {
        tracked_.push_back(process);
        series_.push_back(std::make_unique<stats::TimeSeries>(
            intervalSeconds_, process->name()));
    }

    /**
     * Record one sample for every tracked process. Call exactly once
     * per interval (the router schedules this as a periodic event).
     */
    void
    sample(SimTime now)
    {
        double t = toSeconds(now);
        double capacity = coreCyclesPerSecond_ * intervalSeconds_;
        for (size_t i = 0; i < tracked_.size(); ++i) {
            double cycles = double(tracked_[i]->takeIntervalCycles());
            double pct =
                capacity > 0 ? cycles / capacity * 100.0 : 0.0;
            // Sample the *preceding* interval: attribute to its start.
            double start = t >= intervalSeconds_
                               ? t - intervalSeconds_
                               : 0.0;
            series_[i]->add(start, pct);
        }
    }

    size_t trackedCount() const { return tracked_.size(); }

    /** Series of process @p index, in track() order. */
    const stats::TimeSeries &
    series(size_t index) const
    {
        return *series_[index];
    }

    /** All series, for report printing. */
    std::vector<const stats::TimeSeries *>
    allSeries() const
    {
        std::vector<const stats::TimeSeries *> out;
        out.reserve(series_.size());
        for (const auto &s : series_)
            out.push_back(s.get());
        return out;
    }

  private:
    double coreCyclesPerSecond_;
    double intervalSeconds_;
    std::vector<SimProcess *> tracked_;
    std::vector<std::unique_ptr<stats::TimeSeries>> series_;
};

} // namespace bgpbench::sim

#endif // BGPBENCH_SIM_LOAD_TRACKER_HH
