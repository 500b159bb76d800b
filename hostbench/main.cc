/**
 * @file
 * hostbench: one host-time benchmark command for the BGP stack.
 *
 *   hostbench --workload fullfeed|churn|topo --seed N --seconds S
 *             --trace 0|1 [--trace-dir DIR]
 *             [--git-sha SHA] [--source-digest HEX]
 *
 * Prints the metric table, the run manifest, and as the last line one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones, with --trace 1 the
 * per-layer ones, and the spans go to DIR. See README.md.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/runtime_config.hh"
#include "net/logging.hh"

#include "harness.hh"

namespace
{

int
usage()
{
    std::cerr << "usage: hostbench --workload fullfeed|churn|topo "
                 "--seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR] [--git-sha SHA] "
                 "[--source-digest HEX]\n";
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && *end == '\0';
}

bool
parseSeed(const std::string &text, uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return !text.empty() && text[0] != '-' && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    hostbench::Options options;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string value = argv[++i];
        double number = 0.0;
        bool ok = true;
        if (arg == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (arg == "--seed") {
            ok = parseSeed(value, options.seed);
        } else if (arg == "--seconds") {
            ok = parseNumber(value, number) && number > 0;
            options.seconds = number;
        } else if (arg == "--trace") {
            ok = value == "0" || value == "1";
            options.trace = value == "1";
        } else if (arg == "--trace-dir") {
            options.traceDir = value;
        } else if (arg == "--git-sha") {
            options.gitSha = value;
        } else if (arg == "--source-digest") {
            options.sourceDigest = value;
        } else {
            ok = false;
        }
        if (!ok)
            return usage();
    }
    if (!haveWorkload)
        return usage();

    try {
        // Ablation switches (BGPBENCH_NO_PREFIX_TREE and friends) take
        // effect here and are recorded in the manifest.
        bgpbench::core::RuntimeConfig::fromEnvironment().apply();
        hostbench::Result result = hostbench::runWorkload(options);
        hostbench::printResult(options, result);
    } catch (const bgpbench::FatalError &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
