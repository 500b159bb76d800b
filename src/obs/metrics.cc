#include "obs/metrics.hh"

#include <algorithm>

#include "net/logging.hh"

namespace bgpbench::obs
{

void
Gauge::noteMax(double value)
{
    double seen = value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !value_.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
}

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1])
{
    if (!std::is_sorted(bounds_.begin(), bounds_.end()))
        fatal("histogram bucket bounds must be sorted");
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

namespace
{

/** Relaxed fetch-max (no std::atomic::fetch_max until C++26). */
void
noteMaxU64(std::atomic<uint64_t> &slot, uint64_t value)
{
    uint64_t seen = slot.load(std::memory_order_relaxed);
    while (value > seen &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

void
Histogram::record(uint64_t sample, uint64_t times)
{
    if (times == 0)
        return;
    // First bucket whose inclusive upper bound covers the sample;
    // past the last bound it lands in the overflow slot.
    size_t i = std::lower_bound(bounds_.begin(), bounds_.end(),
                                sample) -
               bounds_.begin();
    buckets_[i].fetch_add(times, std::memory_order_relaxed);
    count_.fetch_add(times, std::memory_order_relaxed);
    sum_.fetch_add(sample * times, std::memory_order_relaxed);
    noteMaxU64(max_, sample);
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    if (i > bounds_.size())
        panic("histogram bucket index out of range");
    return buckets_[i].load(std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_[name];
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return gauges_[name];
}

Histogram &
MetricRegistry::histogram(const std::string &name,
                          const std::vector<uint64_t> &bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = histograms_.try_emplace(name, bounds);
    if (!inserted && it->second.bounds() != bounds)
        fatal("histogram '" + name +
              "' re-registered with different bucket bounds");
    return it->second;
}

uint64_t
MetricRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

double
MetricRegistry::gaugeValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second.value();
}

void
MetricRegistry::absorb(MetricRegistry &source)
{
    // Snapshot-and-reset under the source lock, then fold into this
    // registry under ours; never hold both (absorb is only called
    // from merge points, but lock discipline stays simple this way).
    Snapshot taken;
    {
        std::lock_guard<std::mutex> lock(source.mutex_);
        for (auto &[name, counter] : source.counters_) {
            taken.counters.emplace_back(name, counter.value());
            counter.reset();
        }
        for (auto &[name, gauge] : source.gauges_) {
            taken.gauges.emplace_back(name, gauge.value());
            gauge.reset();
        }
        for (auto &[name, histogram] : source.histograms_) {
            Snapshot::HistogramRow row;
            row.name = name;
            row.bounds = histogram.bounds();
            for (size_t i = 0; i <= row.bounds.size(); ++i)
                row.counts.push_back(histogram.bucketCount(i));
            row.count = histogram.count();
            row.sum = histogram.sum();
            row.max = histogram.max();
            taken.histograms.push_back(std::move(row));
            histogram.reset();
        }
    }
    for (const auto &[name, value] : taken.counters)
        counter(name).add(value);
    for (const auto &[name, value] : taken.gauges)
        gauge(name).noteMax(value);
    for (const auto &row : taken.histograms) {
        Histogram &merged = histogram(row.name, row.bounds);
        for (size_t i = 0; i < row.counts.size(); ++i)
            merged.buckets_[i].fetch_add(row.counts[i],
                                         std::memory_order_relaxed);
        merged.count_.fetch_add(row.count,
                                std::memory_order_relaxed);
        merged.sum_.fetch_add(row.sum, std::memory_order_relaxed);
        noteMaxU64(merged.max_, row.max);
    }
}

MetricRegistry::Snapshot
MetricRegistry::snapshot() const
{
    Snapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_)
        snap.counters.emplace_back(name, counter.value());
    for (const auto &[name, gauge] : gauges_)
        snap.gauges.emplace_back(name, gauge.value());
    for (const auto &[name, histogram] : histograms_) {
        Snapshot::HistogramRow row;
        row.name = name;
        row.bounds = histogram.bounds();
        for (size_t i = 0; i <= row.bounds.size(); ++i)
            row.counts.push_back(histogram.bucketCount(i));
        row.count = histogram.count();
        row.sum = histogram.sum();
        row.max = histogram.max();
        snap.histograms.push_back(std::move(row));
    }
    return snap;
}

uint64_t
histogramQuantile(const MetricRegistry::Snapshot::HistogramRow &row,
                  double q)
{
    if (row.count == 0)
        return 0;
    if (q <= 0.0 || q > 1.0)
        fatal("histogramQuantile: q must be in (0, 1]");
    // The rank-th smallest sample (1-based), rounding the rank up so
    // p50 of two samples is the first, not an interpolation.
    uint64_t rank = uint64_t(double(row.count) * q);
    if (double(rank) < double(row.count) * q || rank == 0)
        ++rank;
    uint64_t cumulative = 0;
    for (size_t i = 0; i < row.counts.size(); ++i) {
        cumulative += row.counts[i];
        if (cumulative >= rank) {
            // Overflow bucket: no upper bound to quote; the exact
            // maximum is the tightest true statement.
            if (i >= row.bounds.size())
                return row.max;
            // The exact maximum is the tighter true bound when the
            // top sample sits low in its bucket.
            return std::min(row.bounds[i], row.max);
        }
    }
    return row.max;
}

HistogramSummary
summarizeHistogram(const MetricRegistry::Snapshot::HistogramRow &row)
{
    HistogramSummary summary;
    if (row.count == 0)
        return summary;
    summary.p50 = histogramQuantile(row, 0.50);
    summary.p90 = histogramQuantile(row, 0.90);
    summary.p99 = histogramQuantile(row, 0.99);
    summary.max = row.max;
    return summary;
}

} // namespace bgpbench::obs
