/**
 * @file
 * Policy-cost benchmark: the Table III scenarios re-run with a
 * 256-entry route-map attached to import and export of both test-peer
 * sessions, next to the plain runs — how much of the paper's
 * transactions-per-second shape survives a production-size policy in
 * the hot path.
 *
 * Three sections:
 *
 *  1. scenarios — every paper scenario on one system, routes/s with
 *     and without the route-map, and the overhead ratio. The map is
 *     an intentionally adversarial scan: 255 non-matching entries in
 *     front of a final permit-all, so every route walks the whole
 *     map on both import and export.
 *  2. cow — the copy-on-write contract measured directly: the same
 *     map applied to an interned full table where a small slice of
 *     routes matches a set-action entry. Accepted-unchanged routes
 *     must keep their interned pointer (cow_hits); the hit rate on
 *     this mostly-unchanged workload is the headline number (> 0.9).
 *  3. --policy-overhead-check runs the CI gate instead of the bench:
 *     scenario 1 with a one-entry pass-through route-map attached
 *     versus no policy (benchutil::pairedOverhead, 41 pairs); the
 *     median pass-through/none ratio must not exceed 1.05. This
 *     bounds the fixed price of having the policy machinery engaged
 *     at all — the COW fast path is what keeps it flat.
 *
 * Writes BENCH_policy_heavy.json (field reference in README.md).
 * Overrides: BGPBENCH_FAST=1 / --smoke shrink the run; --out FILE.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bgp/attr_intern.hh"
#include "bgp/policy.hh"
#include "core/benchmark_runner.hh"
#include "core/scenario.hh"
#include "stats/json.hh"
#include "stats/report.hh"
#include "workload/route_set.hh"

#include "bench_util.hh"

using namespace bgpbench;

namespace
{

double
wallMs(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

/**
 * The 256-entry scan: 255 entries that match none of the generated
 * routes (rotating through community, path-length, and prefix-range
 * conditions so the per-entry work is realistic, not one memoised
 * check), then a permit-all. Every evaluated route pays the full
 * walk and comes out accepted with unchanged attributes.
 */
bgp::Policy
heavyScanPolicy(size_t entries)
{
    // 240.0.0.0/4 (class E) never appears in the workload.
    auto class_e = std::make_shared<bgp::PrefixList>("class-e");
    class_e->add(5, true, net::Prefix(net::Ipv4Address(240, 0, 0, 0), 4),
                 std::nullopt, 32);
    auto map = std::make_shared<bgp::RouteMap>("heavy-scan");
    for (size_t i = 0; i + 1 < entries; ++i) {
        bgp::RouteMapEntry entry;
        entry.seq = uint32_t(10 * (i + 1));
        entry.permit = true;
        switch (i % 3) {
          case 0:
            // No generated route carries communities.
            entry.match.hasCommunity = 0xFFFF0000u | uint32_t(i);
            break;
          case 1:
            // Generated paths are at most ~6 hops.
            entry.match.minAsPathLength = 24;
            break;
          default:
            entry.prefixList = class_e;
            break;
        }
        map->add(std::move(entry));
    }
    bgp::RouteMapEntry accept_all;
    accept_all.seq = uint32_t(10 * entries);
    accept_all.permit = true;
    map->add(std::move(accept_all));
    return bgp::Policy(std::move(map));
}

/** One entry, matches everything, changes nothing. */
bgp::Policy
passThroughPolicy()
{
    auto map = std::make_shared<bgp::RouteMap>("pass-through");
    map->add(bgp::RouteMapEntry{});
    return bgp::Policy(std::move(map));
}

struct ScenarioPoint
{
    int scenario = 0;
    double tpsNoPolicy = 0.0;
    double tpsPolicy = 0.0;
};

struct CowPoint
{
    bgp::PolicyEvalStats stats;
    size_t routes = 0;
};

/**
 * Apply the heavy map to an interned table where ~1/16 of the routes
 * carry the one AS a set-action entry matches. The rest must come
 * back pointer-identical.
 */
CowPoint
measureCow(size_t route_count)
{
    // The scan map plus one set-action entry in the middle: routes
    // whose path contains AS 64999 get LOCAL_PREF 200 (a genuine
    // attribute change, so they cost a copy + re-intern).
    auto map = std::make_shared<bgp::RouteMap>("heavy-cow");
    const bgp::Policy scan = heavyScanPolicy(256);
    for (const bgp::RouteMapEntry &entry :
         scan.routeMap()->entries())
        map->add(entry);
    bgp::RouteMapEntry boost;
    boost.seq = 5; // evaluated first
    boost.permit = true;
    boost.match.asPathContains = bgp::AsNumber(64999);
    boost.set.localPref = 200;
    map->add(std::move(boost));

    workload::RouteSetConfig rc;
    rc.count = route_count;
    rc.seed = 42;
    auto routes = workload::generateRouteSet(rc);

    CowPoint point;
    point.routes = routes.size();
    std::vector<bgp::PathAttributesPtr> table;
    table.reserve(routes.size());
    for (size_t i = 0; i < routes.size(); ++i) {
        bgp::PathAttributes attrs;
        std::vector<bgp::AsNumber> path = routes[i].basePath;
        if (i % 16 == 0)
            path.push_back(bgp::AsNumber(64999));
        attrs.asPath = bgp::AsPath::sequence(path);
        attrs.nextHop = net::Ipv4Address(10, 0, 1, 2);
        attrs.localPref = 100;
        table.push_back(bgp::makeAttributes(std::move(attrs)));
    }

    for (size_t i = 0; i < routes.size(); ++i) {
        bgp::PathAttributesPtr out = map->apply(
            routes[i].prefix, table[i], 0, &point.stats);
        // The COW contract, asserted inline so a regression fails
        // the bench, not only the JSON gate downstream.
        if (i % 16 != 0 && out.get() != table[i].get()) {
            std::cerr << "error: unchanged route lost its interned "
                         "pointer identity\n";
            std::exit(1);
        }
    }
    return point;
}

int
runPolicyOverheadCheck(size_t prefixes)
{
    router::SystemProfile profile = router::profileByName("Xeon");
    const core::Scenario scenario = core::scenarioByNumber(1);

    auto once = [&](bool with_policy) {
        core::BenchmarkConfig config;
        config.prefixCount = prefixes;
        if (with_policy) {
            config.importPolicy = passThroughPolicy();
            config.exportPolicy = passThroughPolicy();
        }
        core::BenchmarkRunner runner(profile, config);
        auto begin = std::chrono::steady_clock::now();
        runner.run(scenario);
        return wallMs(begin);
    };

    // A best-of-9 per mode read 0.65-1.06 over 40 runs on a 4-vCPU
    // host; the median ratio of 41 pairs read 1.005-1.026 over 30
    // runs, and 1.069-1.089 over 10 runs of a copy whose
    // copy-on-write hit path re-interns a copy of the attributes.
    const int pairs = 41;
    benchutil::PairedOverhead m = benchutil::pairedOverhead(pairs, once);
    std::cout << "policy overhead check (scenario 1, Xeon, "
              << prefixes << " prefixes):\n"
              << "  best pass-through route-map "
              << stats::formatDouble(m.bestTreated, 2) << " ms, best none "
              << stats::formatDouble(m.bestBaseline, 2)
              << " ms, median ratio of " << pairs << " pairs "
              << stats::formatDouble(m.medianRatio, 3) << " (limit 1.05)\n";
    if (m.medianRatio > 1.05) {
        std::cerr << "error: a pass-through route-map costs more "
                     "than 5% over no policy\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = benchutil::fastMode();
    bool overhead_check = false;
    std::string out_path = "BENCH_policy_heavy.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--policy-overhead-check") {
            overhead_check = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: policy_heavy [--smoke] "
                         "[--policy-overhead-check] [--out FILE]\n";
            return 2;
        }
    }

    if (overhead_check)
        return runPolicyOverheadCheck(smoke ? 300 : 1000);

    const size_t prefixes =
        benchutil::envSize("BGPBENCH_PREFIXES", smoke ? 300 : 2000);
    const size_t map_entries = 256;
    router::SystemProfile profile = router::profileByName("Xeon");
    const bgp::Policy heavy = heavyScanPolicy(map_entries);

    std::cout << "Policy-heavy Table III variant (" << profile.name
              << ", " << prefixes << " prefixes, " << map_entries
              << "-entry route-map on import+export)\n\n";

    std::vector<ScenarioPoint> points;
    stats::TextTable table({"Scenario", "plain tps", "policy tps",
                            "overhead"});
    for (const auto &scenario : core::allScenarios()) {
        ScenarioPoint point;
        point.scenario = scenario.number;

        core::BenchmarkConfig plain;
        plain.prefixCount = prefixes;
        core::BenchmarkRunner plain_runner(profile, plain);
        point.tpsNoPolicy =
            plain_runner.run(scenario).measuredTps;

        core::BenchmarkConfig heavy_config;
        heavy_config.prefixCount = prefixes;
        heavy_config.importPolicy = heavy;
        heavy_config.exportPolicy = heavy;
        core::BenchmarkRunner heavy_runner(profile, heavy_config);
        point.tpsPolicy = heavy_runner.run(scenario).measuredTps;

        double overhead = point.tpsPolicy > 0
                              ? point.tpsNoPolicy / point.tpsPolicy
                              : 0.0;
        table.addRow({scenario.name(),
                      stats::formatDouble(point.tpsNoPolicy, 1),
                      stats::formatDouble(point.tpsPolicy, 1),
                      stats::formatDouble(overhead, 2) + "x"});
        points.push_back(point);
    }
    table.print(std::cout);

    CowPoint cow = measureCow(smoke ? 20000 : 100000);
    std::cout << "\ncopy-on-write: " << cow.stats.evals
              << " evaluations, " << cow.stats.cowHits
              << " pointer-identical, " << cow.stats.cowCopies
              << " copied, hit rate "
              << stats::formatDouble(cow.stats.cowHitRatio(), 4)
              << "\n";

    std::ofstream json_out(out_path);
    stats::JsonWriter json(json_out);
    json.beginObject();
    json.field("benchmark", "policy_heavy");
    json.field("smoke", smoke);
    json.field("system", profile.name);
    json.field("prefixes", uint64_t(prefixes));
    json.field("route_map_entries", uint64_t(map_entries));
    json.key("scenarios");
    json.beginArray();
    for (const ScenarioPoint &point : points) {
        json.beginObject();
        json.field("scenario", int64_t(point.scenario));
        json.field("tps_no_policy", point.tpsNoPolicy);
        json.field("tps_policy", point.tpsPolicy);
        json.field("overhead_ratio",
                   point.tpsPolicy > 0
                       ? point.tpsNoPolicy / point.tpsPolicy
                       : 0.0);
        json.endObject();
    }
    json.endArray();
    json.key("cow");
    json.beginObject();
    json.field("routes", uint64_t(cow.routes));
    json.field("evals", cow.stats.evals);
    json.field("rejects", cow.stats.rejects);
    json.field("cow_hits", cow.stats.cowHits);
    json.field("cow_copies", cow.stats.cowCopies);
    json.field("hit_rate", cow.stats.cowHitRatio());
    json.endObject();
    json.endObject();
    json_out << "\n";
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
