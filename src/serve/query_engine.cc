#include "serve/query_engine.hh"

#include <algorithm>
#include <chrono>

#include "net/logging.hh"
#include "net/wire_segment.hh"
#include "stats/json.hh"

namespace bgpbench::serve
{

namespace
{

/**
 * Latency bucket bounds in nanoseconds: powers of two from 64 ns to
 * 1 ms. Anything slower lands in the overflow bucket and is quoted
 * via the tracked maximum.
 */
std::vector<uint64_t>
latencyBoundsNs()
{
    std::vector<uint64_t> bounds;
    for (uint64_t b = 64; b <= 1048576; b *= 2)
        bounds.push_back(b);
    return bounds;
}

std::string
latencyMetricName(workload::QueryKind kind)
{
    return std::string("serve.latency.") + workload::queryKindName(kind);
}

uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

} // namespace

QueryEngine::QueryEngine(const SnapshotPublisher &publisher,
                         std::vector<net::Prefix> targets,
                         const QueryEngineConfig &config)
    : publisher_(publisher), config_(config)
{
    if (config_.readers < 1)
        fatal("QueryEngine requires at least one reader");
    readers_.reserve(size_t(config_.readers));
    for (int r = 0; r < config_.readers; ++r) {
        auto reader = std::make_unique<Reader>();
        workload::QueryStreamConfig stream = config_.stream;
        stream.seed = config_.seed + uint64_t(r);
        reader->stream = std::make_unique<workload::QueryStream>(
            targets, stream);
        reader->metrics = std::make_unique<obs::MetricRegistry>();
        readers_.push_back(std::move(reader));
    }
}

bool
QueryEngine::execute(const RibSnapshot &snapshot,
                     const workload::Query &query, Reader &reader)
{
    using workload::QueryKind;
    // Response encoding mirrors what a management-plane daemon would
    // put on the socket: a kind byte, the epoch, then the answer.
    net::BufferPool &pool = net::BufferPool::global();

    switch (query.kind) {
      case QueryKind::Lookup: {
        const SnapshotRoute *route = snapshot.lookup(query.addr);
        net::ByteWriter writer = pool.writer(24);
        writer.writeU8(uint8_t(query.kind));
        writer.writeU32(uint32_t(snapshot.epoch()));
        writer.writeAddress(query.addr);
        if (route) {
            writer.writeAddress(route->prefix.address());
            writer.writeU8(uint8_t(route->prefix.length()));
            writer.writeU32(uint32_t(route->peer));
        }
        reader.encodedBytes += pool.seal(std::move(writer))->size();
        return route != nullptr;
      }
      case QueryKind::BestPath: {
        const SnapshotRoute *route = snapshot.bestPath(query.prefix);
        net::ByteWriter writer = pool.writer(32);
        writer.writeU8(uint8_t(query.kind));
        writer.writeU32(uint32_t(snapshot.epoch()));
        writer.writeAddress(query.prefix.address());
        writer.writeU8(uint8_t(query.prefix.length()));
        if (route) {
            writer.writeU32(uint32_t(route->peer));
            writer.writeU8(route->locallyOriginated ? 1 : 0);
            writer.writeU16(uint16_t(
                route->attributes ? route->attributes->asPath.pathLength()
                                  : 0));
        }
        reader.encodedBytes += pool.seal(std::move(writer))->size();
        return route != nullptr;
      }
      case QueryKind::Scan: {
        net::ByteWriter writer = pool.writer(16 + scanLimit * 9);
        writer.writeU8(uint8_t(query.kind));
        writer.writeU32(uint32_t(snapshot.epoch()));
        writer.writeAddress(query.prefix.address());
        writer.writeU8(uint8_t(query.prefix.length()));
        size_t visited = snapshot.scan(
            query.prefix, scanLimit,
            [&writer](const SnapshotRoute &route) {
                writer.writeAddress(route.prefix.address());
                writer.writeU8(uint8_t(route.prefix.length()));
                writer.writeU32(uint32_t(route.peer));
            });
        reader.encodedBytes += pool.seal(std::move(writer))->size();
        reader.routesScanned += visited;
        return visited > 0;
      }
      case QueryKind::PeerStats: {
        const auto &peers = snapshot.peerSummaries();
        net::ByteWriter writer = pool.writer(8 + peers.size() * 12);
        writer.writeU8(uint8_t(query.kind));
        writer.writeU32(uint32_t(snapshot.epoch()));
        writer.writeU16(uint16_t(peers.size()));
        for (const PeerTableSummary &peer : peers) {
            writer.writeU32(uint32_t(peer.peer));
            writer.writeU32(uint32_t(peer.bestPaths));
        }
        reader.encodedBytes += pool.seal(std::move(writer))->size();
        return !peers.empty();
      }
    }
    return false;
}

void
QueryEngine::readerLoop(Reader &reader, uint64_t quota)
{
    const std::vector<uint64_t> bounds = latencyBoundsNs();
    obs::Histogram *latency[4];
    for (int k = 0; k < 4; ++k)
        latency[k] = &reader.metrics->histogram(
            latencyMetricName(workload::QueryKind(k)), bounds);

    const uint64_t started = nowNs();
    uint64_t last = started;
    bool sawSnapshot = false;
    // The flag is read after each batch, so a paced reader serves at
    // least one even when stop() comes before its thread runs.
    do {
        RibSnapshotPtr snapshot = publisher_.current();
        if (!sawSnapshot) {
            reader.firstEpoch = snapshot->epoch();
            sawSnapshot = true;
        }
        reader.lastEpoch = snapshot->epoch();

        uint64_t batch = quota ? batchSize : pacedBatch;
        if (quota)
            batch = std::min(batch, quota - reader.queries);
        for (uint64_t i = 0; i < batch; ++i) {
            workload::Query query = reader.stream->next();
            size_t k = size_t(query.kind);
            bool hit = execute(*snapshot, query, reader);
            uint64_t now = nowNs();
            latency[k]->record(now - last);
            last = now;
            ++reader.perClass[k];
            if (hit)
                ++reader.hits[k];
            ++reader.queries;
        }
        if (quota && reader.queries >= quota)
            break;
        if (!quota) {
            // Sliced so stop() never waits a full interval for the
            // reader to notice the flag.
            uint64_t slept = 0;
            while (slept < pacedIntervalNs &&
                   !stopFlag_.load(std::memory_order_relaxed)) {
                uint64_t slice =
                    std::min<uint64_t>(pacedIntervalNs - slept, 500000);
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(slice));
                slept += slice;
            }
            // The pause must not be charged to the next query.
            last = nowNs();
        }
    } while (!stopFlag_.load(std::memory_order_relaxed));
    reader.wallNs = nowNs() - started;
}

void
QueryEngine::startPaced()
{
    if (pacedRunning_)
        fatal("QueryEngine: paced readers already running");
    stopFlag_.store(false, std::memory_order_relaxed);
    pacedRunning_ = true;
    for (auto &reader : readers_)
        reader->thread =
            std::thread([this, r = reader.get()] { readerLoop(*r, 0); });
}

void
QueryEngine::stop()
{
    if (!pacedRunning_)
        return;
    stopFlag_.store(true, std::memory_order_relaxed);
    for (auto &reader : readers_)
        if (reader->thread.joinable())
            reader->thread.join();
    pacedRunning_ = false;
}

ServeReport
QueryEngine::runFixed()
{
    if (pacedRunning_)
        fatal("QueryEngine: stop paced readers before runFixed");
    stopFlag_.store(false, std::memory_order_relaxed);
    for (auto &reader : readers_)
        reader->thread = std::thread(
            [this, r = reader.get()] {
                readerLoop(*r, config_.queriesPerReader);
            });
    for (auto &reader : readers_)
        reader->thread.join();
    return report();
}

ServeReport
QueryEngine::report()
{
    ServeReport out;
    for (auto &reader : readers_) {
        out.queries += reader->queries;
        out.wallNs = std::max(out.wallNs, reader->wallNs);
        out.encodedBytes += reader->encodedBytes;
        out.routesScanned += reader->routesScanned;
        if (reader->firstEpoch < out.firstEpoch || out.firstEpoch == 0)
            out.firstEpoch = reader->firstEpoch;
        out.lastEpoch = std::max(out.lastEpoch, reader->lastEpoch);
    }

    // Merge the per-reader latency histograms by row (bounds are
    // identical across readers). snapshot() rather than absorb() so
    // report() leaves the registries intact — absorbInto() is the
    // draining path.
    std::vector<obs::MetricRegistry::Snapshot::HistogramRow> rows;
    for (auto &reader : readers_) {
        obs::MetricRegistry::Snapshot snap = reader->metrics->snapshot();
        for (auto &row : snap.histograms) {
            auto it = std::find_if(rows.begin(), rows.end(),
                                   [&row](const auto &existing) {
                                       return existing.name == row.name;
                                   });
            if (it == rows.end()) {
                rows.push_back(row);
                continue;
            }
            for (size_t i = 0; i < row.counts.size(); ++i)
                it->counts[i] += row.counts[i];
            it->count += row.count;
            it->sum += row.sum;
            it->max = std::max(it->max, row.max);
        }
    }

    for (int k = 0; k < 4; ++k) {
        QueryClassStats stats;
        stats.kind = workload::QueryKind(k);
        for (auto &reader : readers_) {
            stats.queries += reader->perClass[k];
            stats.hits += reader->hits[k];
        }
        std::string name = latencyMetricName(stats.kind);
        auto it = std::find_if(rows.begin(), rows.end(),
                               [&name](const auto &row) {
                                   return row.name == name;
                               });
        if (it != rows.end())
            stats.latencyNs = obs::summarizeHistogram(*it);
        out.classes.push_back(stats);
    }

    if (out.wallNs > 0)
        out.queriesPerSec =
            double(out.queries) * 1e9 / double(out.wallNs);
    return out;
}

void
QueryEngine::absorbInto(obs::MetricRegistry &target)
{
    for (auto &reader : readers_)
        target.absorb(*reader->metrics);
}

void
writeServeReportJson(stats::JsonWriter &json, const ServeReport &report)
{
    json.beginObject();
    json.field("queries", report.queries);
    json.field("wall_ms", double(report.wallNs) / 1e6);
    json.field("queries_per_sec", report.queriesPerSec);
    json.field("encoded_bytes", report.encodedBytes);
    json.field("routes_scanned", report.routesScanned);
    json.field("first_epoch", report.firstEpoch);
    json.field("last_epoch", report.lastEpoch);
    json.key("classes");
    json.beginArray();
    for (const QueryClassStats &cls : report.classes) {
        json.beginObject();
        json.field("class", workload::queryKindName(cls.kind));
        json.field("queries", cls.queries);
        json.field("hits", cls.hits);
        json.field("p50_ns", cls.latencyNs.p50);
        json.field("p90_ns", cls.latencyNs.p90);
        json.field("p99_ns", cls.latencyNs.p99);
        json.field("max_ns", cls.latencyNs.max);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace bgpbench::serve
