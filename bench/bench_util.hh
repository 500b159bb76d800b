/**
 * @file
 * Shared helpers for the benchmark executables: environment-variable
 * overrides so a quick run (CI) and a full paper-scale run use the
 * same binaries.
 *
 *   BGPBENCH_PREFIXES  table size per run (default per bench)
 *   BGPBENCH_SYSTEMS   comma list of systems (default: all four)
 *   BGPBENCH_FAST      1 = shrink workloads for a fast smoke run
 *
 * Numbers parse strictly (core::parseNumber): a malformed variable
 * keeps the bench's default.
 */

#ifndef BGPBENCH_BENCH_UTIL_HH
#define BGPBENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <string>
#include <vector>

#include "core/runtime_config.hh"
#include "router/system_profiles.hh"

namespace bgpbench::benchutil
{

inline size_t
envSize(const char *name, size_t fallback)
{
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    return core::parseNumber<size_t>(value).value_or(fallback);
}

inline bool
fastMode()
{
    const char *value = std::getenv("BGPBENCH_FAST");
    return value && std::string(value) == "1";
}

/** Prefix count for a bench, honouring the overrides. */
inline size_t
prefixCount(size_t normal, size_t fast)
{
    size_t base = fastMode() ? fast : normal;
    return envSize("BGPBENCH_PREFIXES", base);
}

/** Systems to run, honouring BGPBENCH_SYSTEMS. */
inline std::vector<router::SystemProfile>
selectedSystems()
{
    const char *value = std::getenv("BGPBENCH_SYSTEMS");
    if (!value || !*value)
        return router::allSystemProfiles();

    std::vector<router::SystemProfile> out;
    std::string list = value;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string name = list.substr(pos, comma - pos);
        if (!name.empty())
            out.push_back(router::profileByName(name));
        pos = comma + 1;
    }
    return out;
}

} // namespace bgpbench::benchutil

#endif // BGPBENCH_BENCH_UTIL_HH
