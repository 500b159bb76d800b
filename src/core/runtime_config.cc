#include "core/runtime_config.hh"

#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>

#include "stats/report.hh"
#include "workload/query_stream.hh"

namespace bgpbench::core
{

namespace
{

const char *
getEnv(const char *name)
{
    const char *value = std::getenv(name);
    return value && *value ? value : nullptr;
}

/** BGPBENCH_SWEEP / BGPBENCH_DAMPING style: exactly "1" is set. */
bool
envFlagIsOne(const char *name)
{
    const char *value = getEnv(name);
    return value && std::strcmp(value, "1") == 0;
}

} // namespace

const char *
configOriginName(ConfigOrigin origin)
{
    switch (origin) {
      case ConfigOrigin::Default:
        return "default";
      case ConfigOrigin::Environment:
        return "environment";
      case ConfigOrigin::CommandLine:
        return "command line";
    }
    return "?";
}

RuntimeConfig
RuntimeConfig::fromEnvironment()
{
    RuntimeConfig config;
    if (envFlagIsOne("BGPBENCH_SWEEP"))
        config.sweep_ = {true, ConfigOrigin::Environment};
    if (const char *value = getEnv("BGPBENCH_JOBS")) {
        config.jobs_ = {
            size_t(std::strtoull(value, nullptr, 10)),
            ConfigOrigin::Environment,
        };
    }
    if (const char *value = getEnv("BGPBENCH_SERVE_READERS")) {
        size_t readers = size_t(std::strtoull(value, nullptr, 10));
        if (readers > 0)
            config.serveReaders_ = {readers, ConfigOrigin::Environment};
    }
    if (const char *value = getEnv("BGPBENCH_SNAPSHOT_EVERY")) {
        config.snapshotEvery_ = {
            std::strtoull(value, nullptr, 10),
            ConfigOrigin::Environment,
        };
    }
    if (const char *value = getEnv("BGPBENCH_QUERY_MIX")) {
        workload::QueryMix mix;
        if (workload::QueryMix::parse(value, mix))
            config.queryMix_ = {value, ConfigOrigin::Environment};
    }
    if (const char *value = getEnv("BGPBENCH_MAX_PATHS")) {
        size_t paths = size_t(std::strtoull(value, nullptr, 10));
        if (paths > 0)
            config.maxPaths_ = {paths, ConfigOrigin::Environment};
    }
    if (const char *value = getEnv("BGPBENCH_MRAI_MS")) {
        config.mraiMs_ = {
            std::strtoull(value, nullptr, 10),
            ConfigOrigin::Environment,
        };
    }
    if (envFlagIsOne("BGPBENCH_DAMPING"))
        config.damping_ = {true, ConfigOrigin::Environment};
    return config;
}

void
RuntimeConfig::overrideSweep(bool enabled)
{
    sweep_ = {enabled, ConfigOrigin::CommandLine};
}

void
RuntimeConfig::overrideJobs(size_t jobs)
{
    jobs_ = {jobs, ConfigOrigin::CommandLine};
}

void
RuntimeConfig::overrideServeReaders(size_t readers)
{
    serveReaders_ = {readers, ConfigOrigin::CommandLine};
}

void
RuntimeConfig::overrideSnapshotEvery(uint64_t every)
{
    snapshotEvery_ = {every, ConfigOrigin::CommandLine};
}

void
RuntimeConfig::overrideQueryMix(std::string mix)
{
    queryMix_ = {std::move(mix), ConfigOrigin::CommandLine};
}

void
RuntimeConfig::overrideMaxPaths(size_t paths)
{
    maxPaths_ = {paths, ConfigOrigin::CommandLine};
}

void
RuntimeConfig::overrideMraiMs(uint64_t ms)
{
    mraiMs_ = {ms, ConfigOrigin::CommandLine};
}

void
RuntimeConfig::overrideDamping(bool enabled)
{
    damping_ = {enabled, ConfigOrigin::CommandLine};
}

void
RuntimeConfig::dump(std::ostream &out) const
{
    auto onOff = [](bool value) { return value ? "on" : "off"; };
    stats::TextTable table({"setting", "value", "source"});
    table.addRow({"sweep", onOff(sweep_.value),
                  configOriginName(sweep_.origin)});
    table.addRow({"jobs",
                  jobs_.value == 0 ? std::string("auto")
                                   : std::to_string(jobs_.value),
                  configOriginName(jobs_.origin)});
    table.addRow({"serve readers", std::to_string(serveReaders_.value),
                  configOriginName(serveReaders_.origin)});
    table.addRow({"snapshot every",
                  snapshotEvery_.value == 0
                      ? std::string("flush")
                      : std::to_string(snapshotEvery_.value),
                  configOriginName(snapshotEvery_.origin)});
    table.addRow({"query mix", queryMix_.value,
                  configOriginName(queryMix_.origin)});
    table.addRow({"max paths", std::to_string(maxPaths_.value),
                  configOriginName(maxPaths_.origin)});
    table.addRow({"mrai ms",
                  mraiMs_.value == 0 ? std::string("off")
                                     : std::to_string(mraiMs_.value),
                  configOriginName(mraiMs_.origin)});
    table.addRow({"damping", onOff(damping_.value),
                  configOriginName(damping_.origin)});
    table.print(out);
}

} // namespace bgpbench::core
