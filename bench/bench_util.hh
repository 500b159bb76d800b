/**
 * @file
 * Shared helpers for the benchmark executables: environment-variable
 * overrides so a quick run (CI) and a full paper-scale run use the
 * same binaries.
 *
 *   BGPBENCH_PREFIXES  table size per run (default per bench)
 *   BGPBENCH_SYSTEMS   comma list of systems (default: all four); an
 *                      unknown name is a usage error (exit status 2)
 *   BGPBENCH_FAST      1 = shrink workloads for a fast smoke run
 *
 * Numbers parse strictly (core::parseNumber): a malformed variable
 * keeps the bench's default.
 *
 * Also the one measurement behind the CI overhead gates
 * (pairedOverhead()).
 */

#ifndef BGPBENCH_BENCH_UTIL_HH
#define BGPBENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/runtime_config.hh"
#include "net/logging.hh"
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

/** Systems to run, honouring BGPBENCH_SYSTEMS: an unknown name prints
 *  one error line and exits with status 2. */
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
        if (!name.empty()) {
            try {
                out.push_back(router::profileByName(name));
            } catch (const FatalError &error) {
                std::cerr << "error: BGPBENCH_SYSTEMS: " << error.what()
                          << "\n";
                std::exit(2);
            }
        }
        pos = comma + 1;
    }
    return out;
}

/** What pairedOverhead() measured. */
struct PairedOverhead
{
    /** Median treated/baseline ratio of the pairs. */
    double medianRatio = 1.0;
    /** Each mode's fastest run, in the unit the run callable returns. */
    double bestTreated = 0.0;
    double bestBaseline = 0.0;
};

/**
 * The CI overhead gates' measurement: how much slower a run is with
 * some machinery engaged (treated) than without it (baseline).
 *
 * One run on a shared host can go at half speed or less while a
 * neighbour is busy, so comparing each mode's best run swings too far
 * to gate on. Instead the two runs of a pair are adjacent and share
 * the host's state: after one discarded warm-up pair (page cache,
 * allocator, CPU clocks), @p pairs pairs run with the order
 * alternated per pair, so neither mode is systematically first, and
 * the gate reads the median of the pairs' ratios.
 *
 * @param run Called as run(treated); returns the run's duration.
 */
template <typename Run>
PairedOverhead
pairedOverhead(int pairs, Run &&run)
{
    run(true);
    run(false);

    PairedOverhead result;
    std::vector<double> ratios;
    for (int pair = 0; pair < pairs; ++pair) {
        bool treated_first = pair % 2 == 0;
        double first = run(treated_first);
        double second = run(!treated_first);
        double treated = treated_first ? first : second;
        double baseline = treated_first ? second : first;
        ratios.push_back(baseline > 0 ? treated / baseline : 1.0);
        if (pair == 0 || treated < result.bestTreated)
            result.bestTreated = treated;
        if (pair == 0 || baseline < result.bestBaseline)
            result.bestBaseline = baseline;
    }
    auto middle = ratios.begin() + ptrdiff_t(ratios.size() / 2);
    std::nth_element(ratios.begin(), middle, ratios.end());
    result.medianRatio = *middle;
    return result;
}

} // namespace bgpbench::benchutil

#endif // BGPBENCH_BENCH_UTIL_HH
