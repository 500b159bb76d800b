/**
 * @file
 * Sample statistics for the host-time benchmark: a mergeable
 * log-linear latency histogram and the percentile rule every timing
 * is reported by.
 *
 * The percentile rule: a tail timing is reported at the highest
 * percentile that still has at least ten samples beyond it, together
 * with the sample count. A "p99" asked of 500 samples is therefore
 * reported as p98 — one sample in a hundred would be five samples,
 * too few to be a percentile rather than an anecdote.
 */

#ifndef HOSTBENCH_STATS_HH
#define HOSTBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hostbench
{

/** Samples a percentile must leave beyond it to be reported. */
inline constexpr uint64_t kTailSamples = 10;

/**
 * The percentile (as a fraction in (0, 1)) to report when @p wanted
 * is asked of @p count samples: @p wanted itself when at least
 * kTailSamples samples lie beyond it, otherwise the highest
 * percentile in whole hundredths that does, and the median when even
 * that is out of reach (fewer than 20 samples).
 */
double reportablePercentile(uint64_t count, double wanted);

/** One reported percentile: which one, its value, and out of how many. */
struct Percentile
{
    double q = 0.5;
    double value = 0.0;
    uint64_t count = 0;
};

/**
 * Log-linear histogram of nanosecond samples: values below
 * kSubBuckets are exact, larger ones fall into kSubBuckets buckets
 * per power of two (0.4% wide). Quantiles interpolate linearly by
 * rank inside the bucket. Not thread-safe; give each thread its own
 * and merge() after joining.
 */
class LatencyHistogram
{
  public:
    static constexpr int kSubBits = 8;
    static constexpr uint64_t kSubBuckets = uint64_t(1) << kSubBits;

    LatencyHistogram();

    void record(uint64_t ns);
    void merge(const LatencyHistogram &other);

    uint64_t count() const { return count_; }
    uint64_t max() const { return max_; }

    /** Value at quantile @p q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

    /** quantile() at reportablePercentile(count(), @p wanted). */
    Percentile tail(double wanted) const;

  private:
    static size_t bucketOf(uint64_t ns);
    static uint64_t bucketLow(size_t bucket);
    static uint64_t bucketWidth(size_t bucket);

    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
    uint64_t max_ = 0;
};

} // namespace hostbench

#endif // HOSTBENCH_STATS_HH
