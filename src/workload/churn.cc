#include "workload/churn.hh"

#include <unordered_set>

#include "bgp/update_builder.hh"
#include "net/logging.hh"
#include "workload/rng.hh"

namespace bgpbench::workload
{

namespace
{

/** Attributes for one flapper, alternating path length per cycle. */
bgp::PathAttributesPtr
flapAttributes(const RouteSpec &route, const StreamConfig &stream,
               uint32_t cycle)
{
    bgp::PathAttributes attrs;
    attrs.origin = bgp::Origin::Igp;
    attrs.nextHop = stream.nextHop;

    std::vector<bgp::AsNumber> path;
    // Alternate between the base path and a once-prepended variant
    // with each down/up cycle the flapper completes. An announce event
    // that picks a flapper still announced can therefore re-send the
    // path it already holds.
    int prepends = 1 + stream.extraPrepends + int(cycle % 2);
    for (int i = 0; i < prepends; ++i)
        path.push_back(stream.speakerAs);
    path.insert(path.end(), route.basePath.begin(),
                route.basePath.end());
    attrs.asPath = bgp::AsPath::sequence(std::move(path));
    return bgp::makeAttributes(std::move(attrs));
}

} // namespace

std::vector<StreamPacket>
buildChurnStream(const std::vector<RouteSpec> &routes,
                 const ChurnConfig &config)
{
    if (routes.empty())
        fatal("churn stream requires routes");
    if (config.stream.speakerAs == 0)
        fatal("churn stream requires a speaker AS");
    if (config.withdrawFraction < 0 || config.withdrawFraction > 1)
        fatal("withdraw fraction must be in [0, 1]");

    size_t flappers = std::max<size_t>(
        1, size_t(double(routes.size()) * config.flappingFraction));
    flappers = std::min(flappers, routes.size());

    Rng rng(config.seed);

    struct FlapperState
    {
        bool announced = true; // phase 1 installed everything
        uint32_t cycles = 0;
    };
    std::vector<FlapperState> state(flappers);

    bgp::UpdateBuilder builder(config.stream.prefixesPerPacket);
    std::unordered_set<net::Prefix> pending;
    std::vector<StreamPacket> packets;

    enum class BatchType
    {
        None,
        Announce,
        Withdraw
    };
    BatchType batch = BatchType::None;

    auto flush = [&]() {
        appendPackets(builder, packets);
        pending.clear();
        batch = BatchType::None;
    };

    // Events come in correlated waves, like real instability: a
    // failing link withdraws (or restores) a burst of prefixes at
    // once, which is also what lets large-packet mode actually pack.
    size_t wave_max =
        std::max<size_t>(1, config.stream.prefixesPerPacket);

    size_t announced_count = flappers;
    size_t emitted = 0;
    while (emitted < config.events) {
        bool withdraw = rng.uniform() < config.withdrawFraction &&
                        announced_count > 0;

        size_t wave = 1 + rng.below(wave_max);
        wave = std::min(wave, config.events - emitted);

        size_t added = 0;
        size_t misses = 0;
        while (added < wave && misses < 8) {
            size_t index = rng.below(flappers);
            FlapperState &flapper = state[index];
            const RouteSpec &route = routes[index];
            bool eligible = withdraw ? flapper.announced : true;
            if (!eligible || pending.count(route.prefix)) {
                ++misses;
                continue;
            }
            misses = 0;
            batch =
                withdraw ? BatchType::Withdraw : BatchType::Announce;
            pending.insert(route.prefix);

            if (withdraw) {
                builder.withdraw(route.prefix);
                flapper.announced = false;
                --announced_count;
            } else {
                builder.announce(
                    route.prefix,
                    flapAttributes(route, config.stream,
                                   flapper.cycles));
                if (!flapper.announced) {
                    ++flapper.cycles;
                    ++announced_count;
                }
                flapper.announced = true;
            }
            ++added;
            ++emitted;
        }
        flush();
    }

    // Re-announce anything left withdrawn so the table converges.
    for (size_t i = 0; i < flappers; ++i) {
        if (!state[i].announced) {
            if (batch == BatchType::Withdraw ||
                pending.count(routes[i].prefix)) {
                flush();
            }
            batch = BatchType::Announce;
            pending.insert(routes[i].prefix);
            builder.announce(routes[i].prefix,
                             flapAttributes(routes[i], config.stream,
                                            state[i].cycles));
            state[i].announced = true;
        }
    }
    flush();

    return packets;
}

} // namespace bgpbench::workload
