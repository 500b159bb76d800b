/**
 * @file
 * RuntimeConfig tests: the env < CLI precedence ladder, the parsing
 * of each BGPBENCH_* variable (numbers through the strict
 * core::parseNumber), and provenance reporting.
 */

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "core/runtime_config.hh"

using namespace bgpbench;

namespace
{

/** Scoped setenv/unsetenv so tests cannot leak into each other. */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }

    ~EnvVar() { ::unsetenv(name_); }

  private:
    const char *name_;
};

} // namespace

TEST(RuntimeConfig, DefaultsIgnoreEnvironment)
{
    EnvVar sweep("BGPBENCH_SWEEP", "1");
    core::RuntimeConfig config;
    EXPECT_FALSE(config.sweep());
    EXPECT_EQ(config.jobs(), 1u);
    EXPECT_EQ(config.sweepOrigin(), core::ConfigOrigin::Default);
}

TEST(RuntimeConfig, ReadsEnvironmentWithLegacySemantics)
{
    // SWEEP requires exactly "1"; JOBS parses as an unsigned integer.
    {
        EnvVar v("BGPBENCH_SWEEP", "yes");
        auto config = core::RuntimeConfig::fromEnvironment();
        EXPECT_FALSE(config.sweep());
        EXPECT_EQ(config.sweepOrigin(), core::ConfigOrigin::Default);
    }
    {
        EnvVar v("BGPBENCH_SWEEP", "1");
        auto config = core::RuntimeConfig::fromEnvironment();
        EXPECT_TRUE(config.sweep());
        EXPECT_EQ(config.sweepOrigin(),
                  core::ConfigOrigin::Environment);
    }
    {
        EnvVar v("BGPBENCH_JOBS", "8");
        auto config = core::RuntimeConfig::fromEnvironment();
        EXPECT_EQ(config.jobs(), 8u);
        EXPECT_EQ(config.jobsOrigin(),
                  core::ConfigOrigin::Environment);
    }
}

TEST(RuntimeConfig, CommandLineBeatsEnvironment)
{
    EnvVar jobs("BGPBENCH_JOBS", "2");
    EnvVar sweep("BGPBENCH_SWEEP", "1");
    auto config = core::RuntimeConfig::fromEnvironment();
    config.overrideJobs(4);
    config.overrideSweep(false);
    EXPECT_EQ(config.jobs(), 4u);
    EXPECT_EQ(config.jobsOrigin(), core::ConfigOrigin::CommandLine);
    EXPECT_FALSE(config.sweep());
    EXPECT_EQ(config.sweepOrigin(), core::ConfigOrigin::CommandLine);
    // Untouched settings keep their provenance.
    EXPECT_EQ(config.maxPathsOrigin(), core::ConfigOrigin::Default);
}

TEST(RuntimeConfig, ServeKnobDefaults)
{
    core::RuntimeConfig config;
    EXPECT_EQ(config.serveReaders(), 4u);
    EXPECT_EQ(config.snapshotEvery(), 0u); // 0 = per flush
    EXPECT_EQ(config.queryMix(), "88:10:1.5:0.5");
    EXPECT_EQ(config.serveReadersOrigin(), core::ConfigOrigin::Default);
    EXPECT_EQ(config.snapshotEveryOrigin(),
              core::ConfigOrigin::Default);
    EXPECT_EQ(config.queryMixOrigin(), core::ConfigOrigin::Default);
}

TEST(RuntimeConfig, ServeKnobsFromEnvironment)
{
    {
        EnvVar readers("BGPBENCH_SERVE_READERS", "8");
        EnvVar every("BGPBENCH_SNAPSHOT_EVERY", "16");
        EnvVar mix("BGPBENCH_QUERY_MIX", "50:30:15:5");
        auto config = core::RuntimeConfig::fromEnvironment();
        EXPECT_EQ(config.serveReaders(), 8u);
        EXPECT_EQ(config.serveReadersOrigin(),
                  core::ConfigOrigin::Environment);
        EXPECT_EQ(config.snapshotEvery(), 16u);
        EXPECT_EQ(config.snapshotEveryOrigin(),
                  core::ConfigOrigin::Environment);
        EXPECT_EQ(config.queryMix(), "50:30:15:5");
        EXPECT_EQ(config.queryMixOrigin(),
                  core::ConfigOrigin::Environment);
    }
    {
        // Zero readers and a malformed mix are ignored, not adopted.
        EnvVar readers("BGPBENCH_SERVE_READERS", "0");
        EnvVar mix("BGPBENCH_QUERY_MIX", "not-a-mix");
        auto config = core::RuntimeConfig::fromEnvironment();
        EXPECT_EQ(config.serveReaders(), 4u);
        EXPECT_EQ(config.serveReadersOrigin(),
                  core::ConfigOrigin::Default);
        EXPECT_EQ(config.queryMix(), "88:10:1.5:0.5");
        EXPECT_EQ(config.queryMixOrigin(), core::ConfigOrigin::Default);
    }
}

TEST(RuntimeConfig, ServeKnobCommandLineBeatsEnvironment)
{
    EnvVar readers("BGPBENCH_SERVE_READERS", "8");
    EnvVar every("BGPBENCH_SNAPSHOT_EVERY", "16");
    auto config = core::RuntimeConfig::fromEnvironment();
    config.overrideServeReaders(2);
    config.overrideSnapshotEvery(4);
    config.overrideQueryMix("1:1:1:1");
    EXPECT_EQ(config.serveReaders(), 2u);
    EXPECT_EQ(config.serveReadersOrigin(),
              core::ConfigOrigin::CommandLine);
    EXPECT_EQ(config.snapshotEvery(), 4u);
    EXPECT_EQ(config.snapshotEveryOrigin(),
              core::ConfigOrigin::CommandLine);
    EXPECT_EQ(config.queryMix(), "1:1:1:1");
    EXPECT_EQ(config.queryMixOrigin(),
              core::ConfigOrigin::CommandLine);
}

TEST(RuntimeConfig, DumpShowsServeKnobs)
{
    core::RuntimeConfig config;
    std::ostringstream os;
    config.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("serve readers"), std::string::npos);
    EXPECT_NE(out.find("snapshot every"), std::string::npos);
    EXPECT_NE(out.find("flush"), std::string::npos); // 0 renders flush
    EXPECT_NE(out.find("query mix"), std::string::npos);
    EXPECT_NE(out.find("88:10:1.5:0.5"), std::string::npos);
}

TEST(RuntimeConfig, OriginNames)
{
    EXPECT_STREQ(core::configOriginName(core::ConfigOrigin::Default),
                 "default");
    EXPECT_STREQ(
        core::configOriginName(core::ConfigOrigin::Environment),
        "environment");
    EXPECT_STREQ(
        core::configOriginName(core::ConfigOrigin::CommandLine),
        "command line");
}

TEST(RuntimeConfig, DumpShowsValueAndSource)
{
    core::RuntimeConfig config;
    config.overrideJobs(0);
    std::ostringstream os;
    config.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("sweep"), std::string::npos);
    EXPECT_NE(out.find("auto"), std::string::npos); // jobs 0
    EXPECT_NE(out.find("command line"), std::string::npos);
    EXPECT_NE(out.find("default"), std::string::npos);
    // Header, rule, and one row per setting.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2 + 8);
}

TEST(RuntimeConfig, MaxPathsKnob)
{
    {
        core::RuntimeConfig config;
        EXPECT_EQ(config.maxPaths(), 1u);
        EXPECT_EQ(config.maxPathsOrigin(),
                  core::ConfigOrigin::Default);
    }
    {
        EnvVar v("BGPBENCH_MAX_PATHS", "4");
        auto config = core::RuntimeConfig::fromEnvironment();
        EXPECT_EQ(config.maxPaths(), 4u);
        EXPECT_EQ(config.maxPathsOrigin(),
                  core::ConfigOrigin::Environment);
    }
    {
        // Zero and garbage are ignored, not adopted.
        EnvVar v("BGPBENCH_MAX_PATHS", "0");
        auto config = core::RuntimeConfig::fromEnvironment();
        EXPECT_EQ(config.maxPaths(), 1u);
        EXPECT_EQ(config.maxPathsOrigin(),
                  core::ConfigOrigin::Default);
    }
    {
        EnvVar v("BGPBENCH_MAX_PATHS", "2");
        auto config = core::RuntimeConfig::fromEnvironment();
        config.overrideMaxPaths(8);
        EXPECT_EQ(config.maxPaths(), 8u);
        EXPECT_EQ(config.maxPathsOrigin(),
                  core::ConfigOrigin::CommandLine);
    }
}

TEST(RuntimeConfig, DumpShowsMaxPaths)
{
    core::RuntimeConfig config;
    config.overrideMaxPaths(4);
    std::ostringstream os;
    config.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("max paths"), std::string::npos);
    EXPECT_NE(out.find("4"), std::string::npos);
}

TEST(RuntimeConfig, ChurnKnobs)
{
    {
        core::RuntimeConfig config;
        EXPECT_EQ(config.mraiMs(), 0u); // paper default: no batching
        EXPECT_FALSE(config.damping());
        EXPECT_EQ(config.mraiMsOrigin(), core::ConfigOrigin::Default);
        EXPECT_EQ(config.dampingOrigin(),
                  core::ConfigOrigin::Default);
    }
    {
        EnvVar mrai("BGPBENCH_MRAI_MS", "1000");
        EnvVar damping("BGPBENCH_DAMPING", "1");
        auto config = core::RuntimeConfig::fromEnvironment();
        EXPECT_EQ(config.mraiMs(), 1000u);
        EXPECT_TRUE(config.damping());
        EXPECT_EQ(config.mraiMsOrigin(),
                  core::ConfigOrigin::Environment);
        EXPECT_EQ(config.dampingOrigin(),
                  core::ConfigOrigin::Environment);
    }
    {
        // BGPBENCH_DAMPING requires exactly "1" (legacy flag style).
        EnvVar damping("BGPBENCH_DAMPING", "yes");
        auto config = core::RuntimeConfig::fromEnvironment();
        EXPECT_FALSE(config.damping());
        EXPECT_EQ(config.dampingOrigin(),
                  core::ConfigOrigin::Default);
    }
    {
        EnvVar mrai("BGPBENCH_MRAI_MS", "1000");
        auto config = core::RuntimeConfig::fromEnvironment();
        config.overrideMraiMs(50);
        config.overrideDamping(true);
        EXPECT_EQ(config.mraiMs(), 50u);
        EXPECT_TRUE(config.damping());
        EXPECT_EQ(config.mraiMsOrigin(),
                  core::ConfigOrigin::CommandLine);
        EXPECT_EQ(config.dampingOrigin(),
                  core::ConfigOrigin::CommandLine);
    }
}

TEST(RuntimeConfig, DumpShowsChurnKnobs)
{
    core::RuntimeConfig config;
    std::ostringstream os;
    config.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("mrai ms"), std::string::npos);
    EXPECT_NE(out.find("damping"), std::string::npos);
    // mrai 0 renders as "off" (the paper default).
    config.overrideMraiMs(250);
    std::ostringstream os2;
    config.dump(os2);
    EXPECT_NE(os2.str().find("250"), std::string::npos);
}

TEST(RuntimeConfig, MalformedNumbersKeepDefaults)
{
    // Garbage, trailing junk, scientific notation, a sign or an
    // overflow is not a number: the default stays, with its origin.
    EnvVar jobs("BGPBENCH_JOBS", "abc");
    EnvVar readers("BGPBENCH_SERVE_READERS", "4x");
    EnvVar every("BGPBENCH_SNAPSHOT_EVERY", "-1");
    EnvVar paths("BGPBENCH_MAX_PATHS", "18446744073709551616");
    EnvVar mrai("BGPBENCH_MRAI_MS", "1e3");
    auto config = core::RuntimeConfig::fromEnvironment();
    EXPECT_EQ(config.jobs(), 1u);
    EXPECT_EQ(config.jobsOrigin(), core::ConfigOrigin::Default);
    EXPECT_EQ(config.serveReaders(), 4u);
    EXPECT_EQ(config.serveReadersOrigin(), core::ConfigOrigin::Default);
    EXPECT_EQ(config.snapshotEvery(), 0u);
    EXPECT_EQ(config.snapshotEveryOrigin(),
              core::ConfigOrigin::Default);
    EXPECT_EQ(config.maxPaths(), 1u);
    EXPECT_EQ(config.maxPathsOrigin(), core::ConfigOrigin::Default);
    EXPECT_EQ(config.mraiMs(), 0u);
    EXPECT_EQ(config.mraiMsOrigin(), core::ConfigOrigin::Default);
}

TEST(ParseNumber, AcceptsOnlyWholeNonNegativeNumbers)
{
    EXPECT_EQ(core::parseNumber<size_t>("42"), 42u);
    EXPECT_EQ(core::parseNumber<size_t>("0"), 0u);
    EXPECT_EQ(core::parseNumber<uint64_t>("18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(core::parseNumber<double>("2.5"), 2.5);
    for (const char *bad : {"", "abc", "50k", "4x", " 4", "+4", "-1",
                            "1e3", "18446744073709551616"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(core::parseNumber<size_t>(bad).has_value());
    }
    EXPECT_FALSE(core::parseNumber<int>("-1").has_value());
    EXPECT_FALSE(core::parseNumber<double>("-0.5").has_value());
    EXPECT_FALSE(core::parseNumber<double>("inf").has_value());
    EXPECT_FALSE(core::parseNumber<double>("nan").has_value());
}
