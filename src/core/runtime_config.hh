/**
 * @file
 * The process-wide runtime settings, read once at startup.
 *
 * RuntimeConfig gathers the BGPBENCH_* environment knobs (the jobs
 * sweep, worker threads, serve workload, ECMP width, MRAI, damping)
 * behind one struct with a documented precedence — command line beats
 * environment beats built-in default — and remembers where each value
 * came from so `bgpbench config` can show the effective
 * configuration.
 *
 * Intended use: fromEnvironment() early in main(), then override*()
 * while parsing argv. Numbers in both places go through one strict
 * parser, parseNumber(): a malformed environment value keeps the
 * default, a malformed argument is a usage error (parseNumberArg()).
 */

#ifndef BGPBENCH_CORE_RUNTIME_CONFIG_HH
#define BGPBENCH_CORE_RUNTIME_CONFIG_HH

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace bgpbench::core
{

/** Where a RuntimeConfig value came from (lowest to highest). */
enum class ConfigOrigin
{
    Default,
    Environment,
    CommandLine,
};

/** "default" | "environment" | "command line". */
const char *configOriginName(ConfigOrigin origin);

/**
 * Parse all of @p text as a non-negative number of type T: no sign,
 * no surrounding garbage, no overflow of T, and a finite value for
 * floating-point T.
 * @return The value, or nullopt when @p text is anything else.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, value);
    bool ok = ec == std::errc() && stop == end && text.front() != '-';
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    return ok ? std::optional<T>(value) : std::nullopt;
}

/** Print "error: OPTION expects a non-negative number" and exit 2. */
[[noreturn]] void rejectNumberArg(std::string_view option,
                                  std::string_view text);

/**
 * parseNumber() for the command line: the value of @p option, or a
 * usage error (one error line on stderr, exit status 2).
 */
template <typename T>
T
parseNumberArg(std::string_view option, std::string_view text)
{
    if (std::optional<T> value = parseNumber<T>(text))
        return *value;
    rejectNumberArg(option, text);
}

class RuntimeConfig
{
  public:
    /** One switch plus the provenance of its current value. */
    template <typename T>
    struct Setting
    {
        T value{};
        ConfigOrigin origin = ConfigOrigin::Default;
    };

    /** Built-in defaults only; ignores the environment. */
    RuntimeConfig() = default;

    /**
     * Defaults overlaid with the BGPBENCH_* environment variables
     * (BGPBENCH_SWEEP=1, BGPBENCH_JOBS=<n>,
     * BGPBENCH_SERVE_READERS=<n>, BGPBENCH_SNAPSHOT_EVERY=<n>,
     * BGPBENCH_QUERY_MIX=<L:B:S:P>, BGPBENCH_MAX_PATHS=<n>,
     * BGPBENCH_MRAI_MS=<n>, BGPBENCH_DAMPING=1). Unset or
     * unparsable variables (see parseNumber()) leave the default in
     * place, with origin Default.
     */
    static RuntimeConfig fromEnvironment();

    /** Benchmarks: also run the jobs-sweep section. */
    bool sweep() const { return sweep_.value; }
    /** Topology worker threads; 1 = sequential, 0 = auto. */
    size_t jobs() const { return jobs_.value; }
    /** Serve workload reader threads. */
    size_t serveReaders() const { return serveReaders_.value; }
    /** Snapshot granularity: 0 = per flush, N = per N decisions. */
    uint64_t snapshotEvery() const { return snapshotEvery_.value; }
    /** Query class mix "L:B:S:P" (workload::QueryMix::parse form). */
    const std::string &queryMix() const { return queryMix_.value; }
    /** BGP maximum-paths (ECMP width); 1 = single best path. */
    size_t maxPaths() const { return maxPaths_.value; }
    /** Per-session MRAI in ms; 0 (paper default) = no batching. */
    uint64_t mraiMs() const { return mraiMs_.value; }
    /** Route flap damping (RFC 2439) in topology scenarios. */
    bool damping() const { return damping_.value; }

    ConfigOrigin sweepOrigin() const { return sweep_.origin; }
    ConfigOrigin jobsOrigin() const { return jobs_.origin; }
    ConfigOrigin serveReadersOrigin() const
    {
        return serveReaders_.origin;
    }
    ConfigOrigin snapshotEveryOrigin() const
    {
        return snapshotEvery_.origin;
    }
    ConfigOrigin queryMixOrigin() const { return queryMix_.origin; }
    ConfigOrigin maxPathsOrigin() const { return maxPaths_.origin; }
    ConfigOrigin mraiMsOrigin() const { return mraiMs_.origin; }
    ConfigOrigin dampingOrigin() const { return damping_.origin; }

    /** Command-line overrides (highest precedence). */
    void overrideSweep(bool enabled);
    void overrideJobs(size_t jobs);
    void overrideServeReaders(size_t readers);
    void overrideSnapshotEvery(uint64_t every);
    void overrideQueryMix(std::string mix);
    void overrideMaxPaths(size_t paths);
    void overrideMraiMs(uint64_t ms);
    void overrideDamping(bool enabled);

    /** Aligned name/value/source dump (the `config` subcommand). */
    void dump(std::ostream &out) const;

    /**
     * Attribute interning, the shared prefix tree, wire segment
     * sharing and adaptive sync each have one implementation, always
     * on, so these are constants. They remain only because
     * hostbench/harness.cc still records them in its run manifest
     * (and hostbench/main.cc still calls apply()); drop them together
     * with those reads.
     */
    bool internEnabled() const { return true; }
    bool prefixTree() const { return true; }
    bool segmentSharing() const { return true; }
    bool adaptiveSync() const { return true; }
    ConfigOrigin internOrigin() const { return ConfigOrigin::Default; }
    ConfigOrigin prefixTreeOrigin() const
    {
        return ConfigOrigin::Default;
    }
    ConfigOrigin segmentSharingOrigin() const
    {
        return ConfigOrigin::Default;
    }
    ConfigOrigin adaptiveSyncOrigin() const
    {
        return ConfigOrigin::Default;
    }
    void apply() const {}

  private:
    Setting<bool> sweep_{false, ConfigOrigin::Default};
    Setting<size_t> jobs_{1, ConfigOrigin::Default};
    Setting<size_t> serveReaders_{4, ConfigOrigin::Default};
    Setting<uint64_t> snapshotEvery_{0, ConfigOrigin::Default};
    Setting<std::string> queryMix_{"88:10:1.5:0.5",
                                   ConfigOrigin::Default};
    Setting<size_t> maxPaths_{1, ConfigOrigin::Default};
    Setting<uint64_t> mraiMs_{0, ConfigOrigin::Default};
    Setting<bool> damping_{false, ConfigOrigin::Default};
};

} // namespace bgpbench::core

#endif // BGPBENCH_CORE_RUNTIME_CONFIG_HH
