#include "obs/views.hh"

#include <algorithm>

#include "stats/report.hh"

namespace bgpbench::obs
{

std::string
shardMetricName(size_t shard, const char *field)
{
    return "parallel.shard." + std::to_string(shard) + "." + field;
}

double
parallelEventImbalance(const MetricRegistry &registry)
{
    size_t shards =
        size_t(registry.gaugeValue(metric::parallelShards));
    if (shards == 0)
        return 0.0;
    uint64_t total = 0;
    uint64_t busiest = 0;
    for (size_t s = 0; s < shards; ++s) {
        uint64_t events =
            registry.counterValue(shardMetricName(s, "events"));
        total += events;
        busiest = std::max(busiest, events);
    }
    if (total == 0)
        return 0.0;
    double ideal = double(total) / double(shards);
    return double(busiest) / ideal - 1.0;
}

void
printParallelView(std::ostream &os, const MetricRegistry &registry)
{
    size_t shards =
        size_t(registry.gaugeValue(metric::parallelShards));
    if (shards == 0)
        return;
    os << "parallel: "
       << uint64_t(registry.gaugeValue(metric::parallelJobs))
       << " job(s), " << shards << " shard(s), "
       << uint64_t(registry.gaugeValue(metric::parallelCutLinks))
       << " cut link(s) ("
       << stats::formatDouble(
              registry.gaugeValue(metric::parallelEdgeCutRatio) *
                  100.0,
              1)
       << "% of links), lookahead "
       << stats::formatDouble(
              registry.gaugeValue(metric::parallelLookaheadNs) / 1e6,
              3)
       << " ms, "
       << registry.counterValue(metric::parallelWindows)
       << " window(s), event imbalance "
       << stats::formatDouble(parallelEventImbalance(registry) *
                                  100.0,
                              1)
       << "%\n";
    stats::TextTable table({"shard", "nodes", "events",
                            "busy host ms"});
    for (size_t s = 0; s < shards; ++s) {
        table.addRow(
            {std::to_string(s),
             std::to_string(uint64_t(registry.gaugeValue(
                 shardMetricName(s, "nodes")))),
             std::to_string(registry.counterValue(
                 shardMetricName(s, "events"))),
             stats::formatDouble(
                 double(registry.counterValue(
                     shardMetricName(s, "busy_host_ns"))) /
                     1e6,
                 2)});
    }
    table.print(os);
}

} // namespace bgpbench::obs
