/**
 * @file
 * Workload `fullfeed`: bulk table load. An internet-shaped feed in
 * large packets from several eBGP peers, plus one downstream
 * customer, into an empty speaker on one thread, with no policy.
 * Each pass builds a fresh speaker and replays the pre-generated
 * feed; after each load the table is frozen into a snapshot and
 * closed-loop readers query it with the writer idle.
 */

#include <algorithm>

#include "stats/summary.hh"
#include "workload/fullfeed.hh"

#include "harness.hh"

namespace hostbench
{

using namespace bgpbench;

namespace
{

struct FullfeedParams
{
    /**
     * The feed is fixed, so runs of every seed load the same table;
     * the seed drives the queries and the sampled checks. (Feeds of
     * different seeds differ by up to 11% in the memory one load
     * takes, which would drown a real change in peak_rss_mb.)
     */
    uint64_t feedSeed = 1;
    size_t routes = 200000;
    size_t feeds = 4;
};

/** The pre-generated feed: per peer, its chunks of packets. */
struct Feed
{
    std::vector<std::vector<std::vector<workload::StreamPacket>>> chunks;
    size_t updates = 0;
};

Feed
generateFeed(const FullfeedParams &params)
{
    Feed feed;
    for (size_t i = 0; i < params.feeds; ++i) {
        workload::FullFeedConfig config;
        config.seed = params.feedSeed; // every peer, the same prefixes
        config.routeCount = params.routes;
        config.feedAs = bgp::AsNumber(64601 + i);
        config.nextHop = net::Ipv4Address(10, 1, uint8_t(i), 2);
        workload::FullFeedGenerator generator(config);
        std::vector<std::vector<workload::StreamPacket>> chunks;
        while (!generator.done()) {
            chunks.emplace_back();
            generator.nextChunk(chunks.back());
            feed.updates += chunks.back().size();
        }
        feed.chunks.push_back(std::move(chunks));
    }
    return feed;
}

/** One speaker with its sink; sessions are up on return. */
struct Router
{
    explicit Router(const FullfeedParams &params)
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
};

/**
 * Replay the feed into @p router, chunks interleaved round-robin
 * across peers the way concurrent sessions arrive. Returns the wall
 * seconds of the load.
 */
double
ingest(Router &router, const Feed &feed, LatencyHistogram &latency,
       UpdateTracer *tracer)
{
    bgp::BgpSpeaker &speaker = *router.speaker;
    router.sink.tracer = tracer;
    bgp::BgpSpeaker::TimeNs now = 0;
    size_t longest = 0;
    for (const auto &chunks : feed.chunks)
        longest = std::max(longest, chunks.size());

    uint64_t passStart = nowNs();
    for (size_t c = 0; c < longest; ++c) {
        for (size_t peer = 0; peer < feed.chunks.size(); ++peer) {
            if (c >= feed.chunks[peer].size())
                continue;
            for (const auto &packet : feed.chunks[peer][c]) {
                uint64_t start = nowNs();
                if (tracer)
                    tracer->begin(start);
                speaker.receiveSegment(bgp::PeerId(peer), packet.wire,
                                       now);
                uint64_t end = nowNs();
                if (tracer)
                    tracer->end(end);
                latency.record(end - start);
            }
            now += 1'000'000; // 1 ms of virtual time per chunk
        }
    }
    double wall = double(nowNs() - passStart) / 1e9;
    router.sink.tracer = nullptr;
    return wall;
}

} // namespace

Result
runFullfeed(const Options &options)
{
    FullfeedParams params;
    params.routes = std::max<size_t>(
        1000, size_t(double(params.routes) * options.scale));
    const uint64_t passTxns = uint64_t(params.routes) * params.feeds;
    Result result;
    result.param("feed_seed", double(params.feedSeed));
    result.param("routes_per_peer", double(params.routes));
    result.param("feed_peers", double(params.feeds));
    result.param("downstream_peers", 1.0);
    result.param("packing", "fill to 4096 B");
    result.param("reader_threads", double(readerThreads()));

    // Set-up, several times: generate the inputs, then bring up a
    // speaker with its sessions, each time from a trimmed heap so
    // every set-up starts from the same state. The last one is kept.
    constexpr int kSetups = 5;
    std::vector<double> setup_s;
    std::vector<double> gen_s;
    Feed feed;
    std::unique_ptr<Router> router;
    for (int i = 0; i < kSetups; ++i) {
        router.reset();
        feed = Feed{};
        releaseFreedMemory();
        uint64_t start = nowNs();
        feed = generateFeed(params);
        uint64_t generated = nowNs();
        router = std::make_unique<Router>(params);
        setup_s.push_back(double(nowNs() - start) / 1e9);
        gen_s.push_back(double(generated - start) / 1e9);
    }
    result.param("updates_per_pass", double(feed.updates));

    // Measured: load passes, each followed by a read burst against
    // the loaded table lasting a third of the load, so the reads
    // sample the whole run.
    TimedPublisher publisher;
    std::unique_ptr<ReadSide> reads;
    std::vector<net::Prefix> prefixes;
    SpanLog writerLog(0, 100000);
    UpdateTracer tracer(&writerLog);
    LayerCounters layers;
    LatencyHistogram latency;
    LatencyHistogram tracedLatency;
    std::vector<double> converge;
    std::vector<double> tracedConverge;
    const uint64_t measureStart = nowNs();
    for (int pass = 0;; ++pass) {
        if (!router)
            router = std::make_unique<Router>(params);
        // The traced run alternates untraced and traced passes, so
        // the tracing overhead is measured in one process.
        bool traced = options.trace && pass % 2 == 1;
        if (traced)
            layers.begin(*router->speaker, router->sink);
        double wall = ingest(*router, feed, traced ? tracedLatency : latency,
                             traced ? &tracer : nullptr);
        if (traced)
            layers.end(*router->speaker, router->sink);
        (traced ? tracedConverge : converge).push_back(wall);

        const bgp::BgpSpeaker &speaker = *router->speaker;
        if (!reads) {
            speaker.locRib().forEach(
                [&](const net::Prefix &prefix, const auto &) {
                    prefixes.push_back(prefix);
                });
            reads = std::make_unique<ReadSide>(
                [&publisher] { return publisher.current(); }, prefixes,
                std::vector<net::Prefix>{}, readerThreads(), options.seed,
                options.trace);
        }
        result.attempt(feed.updates);
        uint64_t txns = speaker.counters().transactionsProcessed();
        result.expect(txns == passTxns, "pass processed " +
                                            std::to_string(txns) +
                                            " transactions");
        checkRouter(result, speaker, router->sink, router->feeds,
                    params.routes,
                    samplePrefixes(prefixes, 1000,
                                   options.seed + uint64_t(pass)));

        publisher.onRibPublish(speaker.locRib(), speaker.ribVersion(), 0);
        reads->burst(wall / 3);

        double elapsed = double(nowNs() - measureStart) / 1e9;
        bool enough = !options.trace || (pass >= 2 && layers.passes() > 0);
        if (elapsed >= options.seconds && enough)
            break;
        router.reset(); // the next pass loads an empty speaker
        releaseFreedMemory();
    }
    ReadReport read = reads->report();
    checkReads(result, read);

    Percentile p50 = latency.tail(0.5);
    Percentile p99 = latency.tail(0.99);
    Percentile q99 = read.latency.tail(0.99);
    result.note("passes " +
                std::to_string(converge.size() + tracedConverge.size()) +
                ", UPDATE latency p" + std::to_string(int(p99.q * 100)) +
                " of " + std::to_string(p99.count) + " calls; query p" +
                std::to_string(int(q99.q * 100)) + " of " +
                std::to_string(q99.count) + " queries");

    const double meanPass = stats::summarize(converge).mean;
    result.set("tps", double(passTxns) / meanPass);
    result.set("update_p50_us", p50.value / 1e3);
    result.set("update_p99_us", p99.value / 1e3);
    result.set("query_qps", read.queriesPerSecond());
    result.set("query_p99_us", q99.value / 1e3);
    result.set("converge_s", meanPass);
    result.set("peak_rss_mb", peakRssMb());
    result.set("setup_s", stats::summarize(setup_s).p50);

    if (options.trace) {
        layers.report(result, tracer, *router->speaker);
        reportServe(result, read, publisher.buildMs,
                    double(publisher.buildMs.size()));
        result.set("workload.gen_s", stats::summarize(gen_s).p50);
        std::vector<const SpanLog *> logs = reads->logs();
        logs.insert(logs.begin(), &writerLog);
        finishTrace(result, options, converge, tracedConverge, logs);
    }
    return result;
}

} // namespace hostbench
