/**
 * @file
 * Extension benchmark: internet-scale full-feed ingestion.
 *
 * The paper's Table III tops out at thousands of prefixes; a deployed
 * default-free router ingests ~1M. This bench drives a streaming,
 * internet-shaped feed (CIDR mix /8../24, power-law AS paths from a
 * Barabási–Albert topology — see workload/fullfeed.hh) from several
 * eBGP peers into one speaker, through the full pipeline: wire decode
 * -> Adj-RIB-In -> decision -> Loc-RIB -> Adj-RIB-Out export. All
 * peers carry the same prefix sequence with per-peer paths, like a
 * multi-homed site's overlapping transit feeds, which is exactly the
 * shape the shared prefix table is built for: the key structure is
 * stored once, every RIB is a value column on it.
 *
 * Reported (each also published through the obs metric registry):
 *  - sustained transactions/second across the whole ingest, timed
 *    over the speaker's receiveSegment() calls only; generating the
 *    feed streams in between and is reported apart as gen_s,
 *  - peak RSS (VmHWM) and the ingest RSS delta,
 *  - bytes per installed route, both as observed process memory
 *    (rss delta / RIB entries) and as structural RIB bytes from
 *    BgpSpeaker::ribMemoryBytes(),
 *  - the tree nodes a lookup of each prefix in the shared prefix
 *    table visits (BgpSpeaker::prefixTableDescentNodes()).
 *
 * Writes BENCH_fullfeed.json (field reference in README.md). The CI
 * regression gate runs --smoke, bounds the structural bytes/route and
 * pins the export and descent counts.
 *
 * Overrides: --smoke / BGPBENCH_FAST=1 shrink the run; --routes N,
 * --peers N, --out FILE.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bgp/message.hh"
#include "bgp/speaker.hh"
#include "core/runtime_config.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/process_memory.hh"
#include "obs/trace.hh"
#include "stats/json.hh"
#include "stats/report.hh"
#include "workload/fullfeed.hh"

#include "bench_util.hh"

using namespace bgpbench;

namespace
{

/** Counts what the speaker exports; the wire bytes are dropped. */
struct Sink : public bgp::SpeakerEvents
{
    uint64_t messages = 0;
    uint64_t transactions = 0;

    void
    onTransmit(bgp::PeerId, bgp::MessageType, net::WireSegmentPtr,
               size_t txns) override
    {
        ++messages;
        transactions += txns;
    }
};

/** Wire-level OPEN/KEEPALIVE handshake for @p id. */
void
establishPeer(bgp::BgpSpeaker &speaker, bgp::PeerId id,
              bgp::AsNumber asn, bgp::RouterId router_id)
{
    speaker.startPeer(id, 0);
    speaker.tcpEstablished(id, 0);
    bgp::OpenMessage open;
    open.myAs = asn;
    open.bgpIdentifier = router_id;
    speaker.receiveBytes(id, bgp::encodeMessage(open), 0);
    speaker.receiveBytes(id,
                         bgp::encodeMessage(bgp::KeepaliveMessage{}),
                         0);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = benchutil::fastMode();
    size_t routes_arg = 0;
    size_t feeds = 12;
    std::string out_path = "BENCH_fullfeed.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--routes" && i + 1 < argc) {
            routes_arg = core::parseNumberArg<size_t>(arg, argv[++i]);
        } else if (arg == "--peers" && i + 1 < argc) {
            feeds = core::parseNumberArg<size_t>(arg, argv[++i]);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: fullfeed [--smoke] [--routes N] "
                         "[--peers N] [--out FILE]\n";
            return 2;
        }
    }
    if (feeds == 0 || feeds > 64) {
        std::cerr << "error: --peers must be in 1..64\n";
        return 2;
    }

    const size_t routes = routes_arg != 0 ? routes_arg
                          : smoke        ? 50'000
                                         : 1'000'000;
    const uint64_t seed = 42;

    std::cout << "full-feed ingestion: " << routes
              << " prefixes from " << feeds << " peers (seed " << seed
              << ")\n";

    Sink sink;
    bgp::SpeakerConfig config;
    config.localAs = 65001;
    config.routerId = 1;
    config.localAddress = net::Ipv4Address(10, 0, 0, 1);
    bgp::BgpSpeaker speaker(config, &sink);

    obs::MetricRegistry registry;
    obs::Tracer tracer;
    speaker.bindObservability(&registry, &tracer, 0);

    // Feed peers plus one pure downstream customer, so the export leg
    // (Adj-RIB-Out + UPDATE packing) carries the full table too.
    std::vector<workload::FullFeedGenerator> generators;
    generators.reserve(feeds);
    for (size_t i = 0; i < feeds; ++i) {
        bgp::PeerConfig peer;
        peer.id = bgp::PeerId(i);
        peer.asn = bgp::AsNumber(64601 + i);
        peer.address = net::Ipv4Address(10, 1, uint8_t(i), 2);
        speaker.addPeer(peer);
        establishPeer(speaker, peer.id, peer.asn,
                      bgp::RouterId(100 + i));

        workload::FullFeedConfig feed;
        feed.seed = seed; // shared: every peer sees the same prefixes
        feed.routeCount = routes;
        feed.feedAs = peer.asn;
        feed.nextHop = peer.address;
        generators.emplace_back(feed);
    }
    const bgp::PeerId downstream = bgp::PeerId(feeds);
    {
        bgp::PeerConfig peer;
        peer.id = downstream;
        peer.asn = 65100;
        peer.address = net::Ipv4Address(10, 2, 0, 2);
        speaker.addPeer(peer);
        establishPeer(speaker, downstream, peer.asn, 900);
    }

    // A router provisioned for full feeds knows its table scale;
    // pre-sizing removes geometric-growth slack from every column.
    speaker.reserveRoutes(routes);

    // Round-robin chunk interleave: every peer advances one chunk per
    // turn, so ingestion, decision, and export flushing overlap the
    // way concurrent sessions do — the feed is never staged whole,
    // which keeps peak RSS the speaker's. The clock splits each turn
    // into generating the chunk and the speaker ingesting it.
    using Clock = std::chrono::steady_clock;
    const obs::ProcessMemory before = obs::readProcessMemory();
    std::vector<workload::StreamPacket> packets;
    bgp::BgpSpeaker::TimeNs now = 0;
    Clock::duration generating{};
    Clock::duration ingesting{};
    bool any = true;
    while (any) {
        any = false;
        for (size_t i = 0; i < feeds; ++i) {
            if (generators[i].done())
                continue;
            packets.clear();
            const Clock::time_point t0 = Clock::now();
            generators[i].nextChunk(packets);
            const Clock::time_point t1 = Clock::now();
            for (const auto &pkt : packets)
                speaker.receiveSegment(bgp::PeerId(i), pkt.wire, now);
            const Clock::time_point t2 = Clock::now();
            generating += t1 - t0;
            ingesting += t2 - t1;
            now += 1'000'000; // 1 ms of virtual time per chunk
            any = any || !generators[i].done();
        }
    }
    const double wall_s = std::chrono::duration<double>(ingesting).count();
    const double gen_s = std::chrono::duration<double>(generating).count();
    const obs::ProcessMemory after = obs::readProcessMemory();

    // Table accounting: the Loc-RIB should hold exactly the shared
    // prefix sequence once, each feed's Adj-RIB-In the whole feed.
    const size_t loc_rib_routes = speaker.locRib().size();
    size_t adj_in_routes = 0;
    size_t adj_out_routes = 0;
    for (bgp::PeerId id : speaker.peerIds()) {
        if (id < feeds)
            adj_in_routes += speaker.adjRibIn(id).size();
        adj_out_routes += speaker.adjRibOut(id).size();
    }
    const size_t total_rib_routes =
        loc_rib_routes + adj_in_routes + adj_out_routes;
    if (loc_rib_routes != routes) {
        std::cerr << "error: Loc-RIB holds " << loc_rib_routes
                  << " routes, expected " << routes << "\n";
        return 1;
    }
    if (adj_in_routes != routes * feeds) {
        std::cerr << "error: Adj-RIB-In holds " << adj_in_routes
                  << " routes, expected " << routes * feeds << "\n";
        return 1;
    }

    const uint64_t announcements = uint64_t(routes) * feeds;
    const double tps = wall_s > 0.0 ? double(announcements) / wall_s
                                    : 0.0;
    const uint64_t rss_delta_kb = after.vmRssKb > before.vmRssKb
                                      ? after.vmRssKb - before.vmRssKb
                                      : 0;
    const double bytes_per_route =
        total_rib_routes > 0
            ? double(rss_delta_kb) * 1024.0 / double(total_rib_routes)
            : 0.0;
    const size_t rib_memory = speaker.ribMemoryBytes();
    const double rib_bytes_per_route =
        total_rib_routes > 0
            ? double(rib_memory) / double(total_rib_routes)
            : 0.0;
    const size_t descent_nodes = speaker.prefixTableDescentNodes();

    // Everything reported below goes through the registry first, so
    // the text/CSV/JSON exporters and this bench's JSON agree.
    obs::publishProcessMemory(registry);
    registry.gauge("fullfeed.tps").set(tps);
    registry.gauge("fullfeed.bytes_per_route").set(bytes_per_route);
    registry.gauge("fullfeed.rib_memory_bytes").set(double(rib_memory));

    const auto &counters = speaker.counters();
    std::cout << "ingest: " << announcements << " announcements in "
              << stats::formatDouble(wall_s, 2) << " s = "
              << stats::formatDouble(tps, 0) << " tps (plus "
              << stats::formatDouble(gen_s, 2) << " s generating the feed)\n"
              << "tables: Loc-RIB " << loc_rib_routes
              << ", Adj-RIB-In " << adj_in_routes << ", Adj-RIB-Out "
              << adj_out_routes << " (exported "
              << counters.prefixesAdvertised << " prefixes in "
              << sink.messages << " messages)\n"
              << "memory: peak RSS " << after.vmHwmKb
              << " kB, ingest delta " << rss_delta_kb << " kB, "
              << stats::formatDouble(bytes_per_route, 1)
              << " B/route observed, "
              << stats::formatDouble(rib_bytes_per_route, 1)
              << " B/route structural (" << rib_memory
              << " B RIB storage)\n"
              << "prefix tree: " << descent_nodes
              << " nodes visited finding every prefix\n";

    std::ofstream json(out_path);
    stats::JsonWriter writer(json);
    writer.beginObject();
    writer.field("benchmark", "fullfeed");
    writer.field("seed", seed);
    writer.field("routes_per_peer", uint64_t(routes));
    writer.field("feed_peers", uint64_t(feeds));
    writer.field("announcements", announcements);
    writer.field("distinct_paths",
                 uint64_t(generators.front().pathPoolSize()));
    writer.field("wall_s", wall_s);
    writer.field("gen_s", gen_s);
    writer.field("tps", registry.gaugeValue("fullfeed.tps"));
    writer.field("updates_received", counters.updatesReceived);
    writer.field("updates_sent", counters.updatesSent);
    writer.field("prefixes_advertised", counters.prefixesAdvertised);
    writer.field("loc_rib_routes", uint64_t(loc_rib_routes));
    writer.field("adj_rib_in_routes", uint64_t(adj_in_routes));
    writer.field("adj_rib_out_routes", uint64_t(adj_out_routes));
    writer.field("total_rib_routes", uint64_t(total_rib_routes));
    writer.field("rss_before_kb", before.vmRssKb);
    writer.field("rss_after_kb", after.vmRssKb);
    writer.field("rss_delta_kb", rss_delta_kb);
    writer.field("peak_rss_kb",
                 uint64_t(registry.gaugeValue("proc.vm_hwm_kb")));
    writer.field("bytes_per_route",
                 registry.gaugeValue("fullfeed.bytes_per_route"));
    writer.field("rib_memory_bytes", uint64_t(rib_memory));
    writer.field("rib_bytes_per_route", rib_bytes_per_route);
    writer.field("prefix_tree_descent_nodes", uint64_t(descent_nodes));
    writer.endObject();
    json << "\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
