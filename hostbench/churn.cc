/**
 * @file
 * Workload `churn`: small-packet incremental updates over a table
 * preloaded during set-up, with reads running beside the writes.
 *
 * Several feed peers each carry the whole table and then a churn
 * stream of one prefix per UPDATE: withdrawals and attribute-changing
 * re-announcements of a flapping subset (workload::buildChurnStream).
 * Every peer has an import route-map (a prefix-list match plus set
 * local-pref) that makes it the preferred path for its own quarter
 * of the address space, so churn from the preferred peer moves best
 * paths and the FIB while churn from the others only touches their
 * Adj-RIB-In. Damping and MRAI are off. The speaker publishes a
 * RibSnapshot every ChurnParams::publishEvery decisions, and
 * closed-loop readers query the newest one throughout the measured
 * passes.
 */

#include <algorithm>

#include "bgp/message.hh"
#include "bgp/policy.hh"
#include "net/logging.hh"
#include "stats/summary.hh"
#include "workload/churn.hh"
#include "workload/route_set.hh"

#include "harness.hh"

namespace hostbench
{

using namespace bgpbench;

namespace
{

struct ChurnParams
{
    size_t routes = 100000;
    size_t feeds = 3;
    /** Churn transactions per peer per pass. */
    size_t events = 20000;
    double flappingFraction = 0.2;
    double withdrawFraction = 0.4;
    /** Publish a snapshot after this many decision runs. */
    uint64_t publishEvery = 65536;
};

struct Inputs
{
    std::vector<workload::RouteSpec> routes;
    std::vector<std::vector<workload::StreamPacket>> preload;
    /** One pass: the peers' churn streams interleaved packet by packet. */
    std::vector<std::pair<bgp::PeerId, net::WireSegmentPtr>> pass;
    uint64_t passTransactions = 0;
};

workload::StreamConfig
feedStream(size_t peer)
{
    workload::StreamConfig stream;
    stream.speakerAs = bgp::AsNumber(64601 + peer);
    stream.nextHop = net::Ipv4Address(10, 1, uint8_t(peer), 2);
    return stream;
}

Inputs
generateInputs(const ChurnParams &params, uint64_t seed)
{
    Inputs inputs;
    workload::RouteSetConfig routeConfig;
    routeConfig.count = params.routes;
    routeConfig.seed = seed;
    inputs.routes = workload::generateRouteSet(routeConfig);

    std::vector<std::vector<workload::StreamPacket>> streams;
    for (size_t peer = 0; peer < params.feeds; ++peer) {
        workload::StreamConfig preload = feedStream(peer);
        preload.prefixesPerPacket = 500;
        inputs.preload.push_back(
            workload::buildAnnouncementStream(inputs.routes, preload));

        workload::ChurnConfig churn;
        churn.stream = feedStream(peer);
        churn.stream.prefixesPerPacket = 1;
        churn.events = params.events;
        churn.flappingFraction = params.flappingFraction;
        churn.withdrawFraction = params.withdrawFraction;
        churn.seed = seed * 7919 + peer;
        streams.push_back(workload::buildChurnStream(inputs.routes, churn));
    }
    size_t longest = 0;
    for (const auto &stream : streams)
        longest = std::max(longest, stream.size());
    for (size_t i = 0; i < longest; ++i) {
        for (size_t peer = 0; peer < streams.size(); ++peer) {
            if (i >= streams[peer].size())
                continue;
            inputs.pass.emplace_back(bgp::PeerId(peer),
                                     streams[peer][i].wire);
            inputs.passTransactions += streams[peer][i].transactions;
        }
    }
    return inputs;
}

/**
 * Every prefix a churn pass withdraws, sorted: a snapshot published
 * mid-pass may lack these, and only these.
 */
std::vector<net::Prefix>
withdrawnPrefixes(const Inputs &inputs)
{
    std::vector<net::Prefix> withdrawn;
    for (const auto &[peer, wire] : inputs.pass) {
        bgp::DecodeError error;
        std::optional<bgp::Message> message =
            bgp::decodeMessage({wire->data(), wire->size()}, error);
        if (!message)
            fatal("hostbench: a churn packet does not decode");
        if (const auto *update = std::get_if<bgp::UpdateMessage>(&*message)) {
            withdrawn.insert(withdrawn.end(), update->withdrawnRoutes.begin(),
                             update->withdrawnRoutes.end());
        }
    }
    std::sort(withdrawn.begin(), withdrawn.end());
    withdrawn.erase(std::unique(withdrawn.begin(), withdrawn.end()),
                    withdrawn.end());
    return withdrawn;
}

/**
 * Import policy of feed @p peer: routes in its quarter of the
 * address space get local-pref 200, everything else is accepted
 * unchanged.
 */
bgp::Policy
importPolicy(size_t peer)
{
    auto list = std::make_shared<bgp::PrefixList>(
        "quarter-" + std::to_string(peer));
    list->add(10, true,
              net::Prefix(net::Ipv4Address(uint8_t((peer % 4) * 64), 0, 0,
                                           0),
                          2),
              std::nullopt, 32);
    auto map = std::make_shared<bgp::RouteMap>(
        "import-" + std::to_string(peer));
    bgp::RouteMapEntry prefer;
    prefer.seq = 10;
    prefer.prefixList = list;
    prefer.set.localPref = 200;
    map->add(prefer);
    bgp::RouteMapEntry rest;
    rest.seq = 20;
    map->add(rest);
    return bgp::Policy(std::shared_ptr<const bgp::RouteMap>(map));
}

struct Router
{
    explicit Router(const ChurnParams &params)
    {
        bgp::SpeakerConfig config;
        config.localAs = 65001;
        config.routerId = 1;
        config.localAddress = net::Ipv4Address(10, 0, 0, 1);
        speaker = std::make_unique<bgp::BgpSpeaker>(config, &sink);
        for (size_t i = 0; i <= params.feeds; ++i) {
            bool downstream = i == params.feeds;
            bgp::PeerConfig peer;
            peer.id = bgp::PeerId(i);
            peer.asn = downstream ? 65100 : bgp::AsNumber(64601 + i);
            peer.address = downstream
                               ? net::Ipv4Address(10, 2, 0, 2)
                               : net::Ipv4Address(10, 1, uint8_t(i), 2);
            if (!downstream)
                peer.importPolicy = importPolicy(i);
            speaker->addPeer(peer);
            establishPeer(*speaker, peer.id, peer.asn,
                          bgp::RouterId(100 + i));
            if (!downstream)
                feeds.push_back(peer.id);
        }
        speaker->reserveRoutes(params.routes);
    }

    RouterSink sink;
    std::unique_ptr<bgp::BgpSpeaker> speaker;
    std::vector<bgp::PeerId> feeds;
    bgp::BgpSpeaker::TimeNs now = 0;
};

/** Replay one churn pass; returns its wall seconds. */
double
replay(Router &router, const Inputs &inputs, LatencyHistogram &latency,
       UpdateTracer *tracer)
{
    bgp::BgpSpeaker &speaker = *router.speaker;
    router.sink.tracer = tracer;
    uint64_t passStart = nowNs();
    for (const auto &[peer, wire] : inputs.pass) {
        uint64_t start = nowNs();
        if (tracer)
            tracer->begin(start);
        speaker.receiveSegment(peer, wire, router.now);
        uint64_t end = nowNs();
        if (tracer)
            tracer->end(end);
        latency.record(end - start);
        router.now += 10'000; // 10 us of virtual time per UPDATE
    }
    router.sink.tracer = nullptr;
    return double(nowNs() - passStart) / 1e9;
}

} // namespace

Result
runChurn(const Options &options)
{
    ChurnParams params;
    params.routes = std::max<size_t>(
        500, size_t(double(params.routes) * options.scale));
    params.events = std::max<size_t>(
        200, size_t(double(params.events) * options.scale));
    params.publishEvery = std::max<uint64_t>(
        64, uint64_t(double(params.publishEvery) * options.scale));
    Result result;
    result.param("routes", double(params.routes));
    result.param("feed_peers", double(params.feeds));
    result.param("downstream_peers", 1.0);
    result.param("churn_events_per_peer", double(params.events));
    result.param("flapping_fraction", params.flappingFraction);
    result.param("withdraw_fraction", params.withdrawFraction);
    result.param("prefixes_per_update", 1.0);
    result.param("publish_every_decisions", double(params.publishEvery));
    result.param("reader_threads", double(readerThreads()));
    result.param("query_mix", "88:10:1.5:0.5");

    // Set-up, several times: generate the inputs, bring up the
    // speaker, preload the table in large packets, and play one
    // churn pass so every measured pass starts from the same state.
    // Freed memory goes back to the system before each set-up and
    // after each pass, so the peak resident set does not depend on
    // what earlier ones left in the heap.
    constexpr int kSetups = 3;
    std::vector<double> setup_s;
    std::vector<double> gen_s;
    Inputs inputs;
    TimedPublisher publisher;
    std::unique_ptr<Router> router;
    for (int i = 0; i < kSetups; ++i) {
        router.reset();
        inputs = Inputs{};
        releaseFreedMemory();
        uint64_t start = nowNs();
        inputs = generateInputs(params, options.seed);
        uint64_t generated = nowNs();
        router = std::make_unique<Router>(params);
        for (size_t peer = 0; peer < params.feeds; ++peer) {
            for (const auto &packet : inputs.preload[peer]) {
                router->speaker->receiveSegment(bgp::PeerId(peer),
                                                packet.wire, router->now);
            }
        }
        LatencyHistogram warmup;
        replay(*router, inputs, warmup, nullptr);
        setup_s.push_back(double(nowNs() - start) / 1e9);
        gen_s.push_back(double(generated - start) / 1e9);
    }
    result.param("updates_per_pass", double(inputs.pass.size()));

    std::vector<net::Prefix> prefixes;
    for (const auto &route : inputs.routes)
        prefixes.push_back(route.prefix);
    checkRouter(result, *router->speaker, router->sink, router->feeds,
                params.routes, samplePrefixes(prefixes, 1000, options.seed));

    router->speaker->bindRibListener(&publisher, params.publishEvery);
    publisher.onRibPublish(router->speaker->locRib(),
                           router->speaker->ribVersion(), router->now);
    const size_t buildsBefore = publisher.buildMs.size();

    // Measured: churn passes with the readers running throughout.
    SpanLog writerLog(0, 100000);
    UpdateTracer tracer(&writerLog);
    LayerCounters layers;
    LatencyHistogram latency;
    LatencyHistogram tracedLatency;
    std::vector<double> converge;
    std::vector<double> tracedConverge;
    ReadSide reads([&publisher] { return publisher.current(); }, prefixes,
                   withdrawnPrefixes(inputs), readerThreads(), options.seed,
                   options.trace);
    const uint64_t measureStart = nowNs();
    reads.start();
    for (int pass = 0;; ++pass) {
        bool traced = options.trace && pass % 2 == 1;
        bgp::BgpSpeaker &speaker = *router->speaker;
        uint64_t before = speaker.counters().transactionsProcessed();
        if (traced) {
            layers.begin(speaker, router->sink);
            publisher.tracer = &tracer;
        }
        double wall = replay(*router, inputs, traced ? tracedLatency : latency,
                             traced ? &tracer : nullptr);
        if (traced) {
            publisher.tracer = nullptr;
            layers.end(speaker, router->sink);
        }
        (traced ? tracedConverge : converge).push_back(wall);

        uint64_t txns = speaker.counters().transactionsProcessed() - before;
        result.attempt(inputs.pass.size());
        result.expect(txns == inputs.passTransactions,
                      "pass processed " + std::to_string(txns) +
                          " transactions, expected " +
                          std::to_string(inputs.passTransactions));
        checkRouter(result, speaker, router->sink, router->feeds,
                    params.routes,
                    samplePrefixes(prefixes, 1000,
                                   options.seed + uint64_t(pass) + 1));
        releaseFreedMemory();

        double elapsed = double(nowNs() - measureStart) / 1e9;
        bool enough = !options.trace || (pass >= 2 && layers.passes() > 0);
        if (elapsed >= options.seconds && enough)
            break;
    }
    reads.stop();
    ReadReport read = reads.report();
    checkReads(result, read);

    std::vector<double> builds(publisher.buildMs.begin() +
                                   long(buildsBefore),
                               publisher.buildMs.end());
    Percentile p50 = latency.tail(0.5);
    Percentile p99 = latency.tail(0.99);
    Percentile q99 = read.latency.tail(0.99);
    size_t passes = converge.size() + tracedConverge.size();
    result.note("passes " + std::to_string(passes) + ", snapshots " +
                std::to_string(builds.size()) + ", UPDATE latency p" +
                std::to_string(int(p99.q * 100)) + " of " +
                std::to_string(p99.count) + " calls; query p" +
                std::to_string(int(q99.q * 100)) + " of " +
                std::to_string(q99.count) + " queries");

    const double meanPass = stats::summarize(converge).mean;
    result.set("tps", double(inputs.passTransactions) / meanPass);
    result.set("update_p50_us", p50.value / 1e3);
    result.set("update_p99_us", p99.value / 1e3);
    result.set("query_qps", read.queriesPerSecond());
    result.set("query_p99_us", q99.value / 1e3);
    result.set("converge_s", meanPass);
    result.set("peak_rss_mb", peakRssMb());
    result.set("setup_s", stats::summarize(setup_s).p50);

    if (options.trace) {
        layers.report(result, tracer, *router->speaker);
        reportServe(result, read, builds,
                    double(builds.size()) / double(passes));
        result.set("workload.gen_s", stats::summarize(gen_s).p50);
        std::vector<const SpanLog *> logs = reads.logs();
        logs.insert(logs.begin(), &writerLog);
        finishTrace(result, options, converge, tracedConverge, logs);
    }
    return result;
}

} // namespace hostbench
