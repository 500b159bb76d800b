#include "stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace hostbench
{

double
reportablePercentile(uint64_t count, double wanted)
{
    auto beyond = [count](double q) {
        return double(count) * (1.0 - q) >= double(kTailSamples) -
                                                 1e-9;
    };
    if (beyond(wanted))
        return wanted;
    for (int hundredths = int(std::floor(wanted * 100.0));
         hundredths > 50; --hundredths) {
        double q = hundredths / 100.0;
        if (beyond(q))
            return q;
    }
    return 0.5;
}

LatencyHistogram::LatencyHistogram()
    : buckets_(size_t(64 - kSubBits + 1) * kSubBuckets, 0)
{}

size_t
LatencyHistogram::bucketOf(uint64_t ns)
{
    if (ns < kSubBuckets)
        return size_t(ns);
    int msb = 63 - std::countl_zero(ns);
    int shift = msb - kSubBits;
    // Power-of-two group (shift + 1) holds [2^msb, 2^(msb+1)) in
    // kSubBuckets equal slices.
    return size_t(shift + 1) * kSubBuckets +
           size_t((ns >> shift) - kSubBuckets);
}

uint64_t
LatencyHistogram::bucketLow(size_t bucket)
{
    if (bucket < kSubBuckets)
        return bucket;
    size_t group = bucket / kSubBuckets;
    uint64_t slice = bucket % kSubBuckets;
    return (kSubBuckets + slice) << (group - 1);
}

uint64_t
LatencyHistogram::bucketWidth(size_t bucket)
{
    return bucket < kSubBuckets ? 1
                                : uint64_t(1) << (bucket / kSubBuckets -
                                                  1);
}

void
LatencyHistogram::record(uint64_t ns)
{
    ++buckets_[bucketOf(ns)];
    ++count_;
    max_ = std::max(max_, ns);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
}

double
LatencyHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank in [0, count - 1], as a fractional position.
    double rank = q * double(count_ - 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        uint64_t n = buckets_[i];
        if (n == 0)
            continue;
        if (double(seen + n) > rank) {
            double within = (rank - double(seen) + 0.5) / double(n);
            double value = double(bucketLow(i)) +
                           within * double(bucketWidth(i));
            return std::min(value, double(max_));
        }
        seen += n;
    }
    return double(max_);
}

Percentile
LatencyHistogram::tail(double wanted) const
{
    Percentile p;
    p.count = count_;
    p.q = reportablePercentile(count_, wanted);
    p.value = quantile(p.q);
    return p;
}

} // namespace hostbench
