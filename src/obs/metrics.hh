/**
 * @file
 * Lock-light metric registry: counters, gauges, and fixed-bucket
 * histograms behind one name-keyed container.
 *
 * The design mirrors ConvergenceTracker: each shard (or thread) owns
 * its own MetricRegistry and updates it without synchronisation
 * beyond relaxed atomics; after a run the per-shard registries are
 * folded into one with absorb(), whose merge (sum for counters and
 * histograms, max for gauges) is order-independent, so report bytes
 * cannot depend on shard count or thread arrival order.
 *
 * Producers count in plain fields and fold them in at a call boundary
 * through handles (Counter* / Histogram*) resolved once; the
 * registration mutex is only taken when a name is first looked up.
 */

#ifndef BGPBENCH_OBS_METRICS_HH
#define BGPBENCH_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bgpbench::obs
{

/**
 * Monotonic event count. Updates are relaxed atomics so concurrent
 * writers (e.g. several speakers of one shard, or the process-wide
 * wire-pool counters) stay TSan-clean; merges sum.
 */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Last-set / high-water numeric value. Merges take the maximum so
 * absorb() stays order-independent; gauges therefore carry level or
 * peak semantics (e.g. "live sets", "peak outstanding segments"),
 * never per-shard values that would need summing — use a Counter for
 * those.
 */
class Gauge
{
  public:
    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    /** Raise the gauge to @p value if it is higher. */
    void noteMax(double value);

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0.0, std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram over uint64_t samples. Bucket upper bounds
 * are inclusive and fixed at registration; samples above the last
 * bound land in an overflow bucket. The exact maximum sample is
 * tracked alongside the buckets (the overflow bucket has no upper
 * bound to quote as a percentile). Updates are relaxed atomics;
 * merges add bucket-wise (bounds must match) and take the larger
 * maximum.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<uint64_t> bounds);

    /** Record @p sample @p times times, as that many records would. */
    void record(uint64_t sample, uint64_t times = 1);

    const std::vector<uint64_t> &
    bounds() const
    {
        return bounds_;
    }

    /** Count in bucket @p i; index bounds().size() is overflow. */
    uint64_t bucketCount(size_t i) const;

    /** Samples above the last bound (== bucketCount(bounds().size())). */
    uint64_t
    overflowCount() const
    {
        return bucketCount(bounds_.size());
    }

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Largest recorded sample; 0 when empty. */
    uint64_t
    max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    double
    mean() const
    {
        uint64_t n = count();
        return n ? double(sum()) / double(n) : 0.0;
    }

    void reset();

  private:
    friend class MetricRegistry;

    std::vector<uint64_t> bounds_;
    /** bounds_.size() + 1 slots; the last is the overflow bucket. */
    std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
};

/**
 * Name-keyed container of metrics with create-or-get registration and
 * an order-independent merge.
 *
 * Registration (counter()/gauge()/histogram()) takes a mutex and
 * returns a reference that stays valid for the registry's lifetime;
 * hot paths cache the pointer. Reads for export go through
 * snapshot(), which lists every metric in name order so emitted
 * reports are deterministic.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** Create-or-get; the reference lives as long as the registry. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /**
     * Create-or-get; @p bounds only applies on creation and must
     * match the registered bounds on later calls (fatal otherwise).
     */
    Histogram &histogram(const std::string &name,
                         const std::vector<uint64_t> &bounds);

    /** Value of a counter, or 0 if @p name was never registered. */
    uint64_t counterValue(const std::string &name) const;
    /** Value of a gauge, or 0.0 if @p name was never registered. */
    double gaugeValue(const std::string &name) const;

    /**
     * Fold @p source into this registry and reset it: counters and
     * histograms add, gauges take the maximum. Absorbing shard
     * registries in any order yields the same result, mirroring
     * ConvergenceTracker::absorb.
     */
    void absorb(MetricRegistry &source);

    /** Point-in-time copy of every metric, sorted by name. */
    struct Snapshot
    {
        std::vector<std::pair<std::string, uint64_t>> counters;
        std::vector<std::pair<std::string, double>> gauges;
        struct HistogramRow
        {
            std::string name;
            std::vector<uint64_t> bounds;
            /** bounds.size() + 1 counts; the last is overflow. */
            std::vector<uint64_t> counts;
            uint64_t count = 0;
            uint64_t sum = 0;
            /** Largest recorded sample; 0 when empty. */
            uint64_t max = 0;

            /** Samples above the last bound. */
            uint64_t
            overflow() const
            {
                return counts.empty() ? 0 : counts.back();
            }
        };
        std::vector<HistogramRow> histograms;

        bool
        empty() const
        {
            return counters.empty() && gauges.empty() &&
                   histograms.empty();
        }
    };

    Snapshot snapshot() const;

  private:
    /** Guards the maps, not the metric values. */
    mutable std::mutex mutex_;
    /** std::map: stable element addresses + sorted iteration. */
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * Quantile estimate from a histogram row: the inclusive upper bound
 * of the bucket where the cumulative count first reaches
 * ceil(q * count) — i.e. an upper bound on the true quantile, tight
 * to one bucket width. The result is clamped to the exact tracked
 * maximum, which is the tighter true bound whenever the top sample
 * sits low in its bucket (and keeps quantiles <= max always). A
 * quantile landing in the overflow bucket (which has no bound)
 * reports the tracked maximum directly, as does q >= 1. Returns 0
 * for an empty histogram. @p q must be in (0, 1].
 */
uint64_t histogramQuantile(
    const MetricRegistry::Snapshot::HistogramRow &row, double q);

/** p50/p90/p99/max of one histogram row (see histogramQuantile). */
struct HistogramSummary
{
    uint64_t p50 = 0;
    uint64_t p90 = 0;
    uint64_t p99 = 0;
    uint64_t max = 0;
};

HistogramSummary summarizeHistogram(
    const MetricRegistry::Snapshot::HistogramRow &row);

} // namespace bgpbench::obs

#endif // BGPBENCH_OBS_METRICS_HH
