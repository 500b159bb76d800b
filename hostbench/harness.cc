#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <malloc.h>
#include <sstream>

#include "bgp/attr_intern.hh"
#include "bgp/message.hh"
#include "core/runtime_config.hh"
#include "net/logging.hh"
#include "net/wire_segment.hh"
#include "obs/process_memory.hh"
#include "obs/views.hh"
#include "stats/json.hh"
#include "stats/summary.hh"
#include "workload/rng.hh"

namespace hostbench
{

using namespace bgpbench;

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"tps", "1/s"},
        {"update_p50_us", "us"},
        {"update_p99_us", "us"},
        {"query_qps", "1/s"},
        {"query_p99_us", "us"},
        {"converge_s", "s"},
        {"peak_rss_mb", "MiB"},
        {"setup_s", "s"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"bgp.receive_busy_s", "s"},
        {"bgp.import_decide_s", "s"},
        {"bgp.export_s", "s"},
        {"bgp.decisions_per_txn", "ratio"},
        {"bgp.prefixes_per_out_update", "ratio"},
        {"bgp.out_updates_per_in_update", "ratio"},
        {"bgp.out_bytes_per_prefix", "B"},
        {"bgp.rib_bytes_per_route", "B"},
        {"bgp.intern_hit_ratio", "ratio"},
        {"bgp.policy_evals", "count"},
        {"bgp.policy_rejects", "count"},
        {"bgp.notifications_sent", "count"},
        {"fib.install_s", "s"},
        {"fib.updates_per_txn", "ratio"},
        {"net.wire_pool_hit_ratio", "ratio"},
        {"net.wire_shared_encodes", "count"},
        {"serve.snapshot_build_ms_p50", "ms"},
        {"serve.snapshot_build_ms_max", "ms"},
        {"serve.snapshots", "count"},
        {"serve.lookup_ns_p50", "ns"},
        {"serve.best_path_ns_p50", "ns"},
        {"serve.scan_ns_p50", "ns"},
        {"serve.lookup_trie_nodes", "count"},
        {"topo.barrier_wait_ratio", "ratio"},
        {"topo.windows", "count"},
        {"topo.mean_window_ns", "ns"},
        {"topo.steals_per_window", "ratio"},
        {"topo.shards", "count"},
        {"topo.cut_links", "count"},
        {"sim.event_imbalance", "ratio"},
        {"topo.shard_busy_s_max", "s"},
        {"topo.shard_busy_s_mean", "s"},
        {"topo.updates", "count"},
        {"workload.gen_s", "s"},
        {"trace_overhead_tps", "ratio"},
        {"trace_overhead_converge_s", "ratio"},
    };
    return specs;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fullfeed", "churn",
                                                   "topo"};
    return names;
}

size_t
usableThreads()
{
    return std::max<size_t>(1, std::thread::hardware_concurrency());
}

size_t
readerThreads()
{
    size_t threads = usableThreads();
    return threads > 2 ? threads - 2 : 1;
}

namespace
{

const MetricSpec *
findSpec(const std::string &name)
{
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &spec : *list) {
            if (name == spec.name)
                return &spec;
        }
    }
    return nullptr;
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

std::string
quote(const std::string &text)
{
    return stats::JsonWriter::quote(text);
}

} // namespace

void
Result::set(const std::string &name, double value)
{
    if (!findSpec(name))
        fatal("hostbench: unknown metric " + name);
    for (auto &entry : values_) {
        if (entry.first == name) {
            entry.second = value;
            return;
        }
    }
    values_.emplace_back(name, value);
}

double
Result::get(const std::string &name) const
{
    for (const auto &entry : values_) {
        if (entry.first == name)
            return entry.second;
    }
    return 0.0;
}

void
Result::expect(bool ok, const std::string &what)
{
    if (ok)
        return;
    ++failed_;
    if (failures_.size() < 20)
        failures_.push_back(what);
}

void
Result::param(const std::string &name, const std::string &value)
{
    params_.emplace_back(name, quote(value));
}

void
Result::param(const std::string &name, double value)
{
    params_.emplace_back(name, number(value));
}

std::string
manifestJson(const Options &options, const Result &result)
{
    core::RuntimeConfig runtime = core::RuntimeConfig::fromEnvironment();
    auto setting = [](const std::string &value, core::ConfigOrigin origin) {
        return "{\"value\":" + value + ",\"origin\":" +
               quote(core::configOriginName(origin)) + "}";
    };
    auto flag = [](bool value) {
        return std::string(value ? "true" : "false");
    };

    std::ostringstream out;
    out << "{\"git_sha\":" << quote(options.gitSha)
        << ",\"source_digest\":" << quote(options.sourceDigest)
        << ",\"nproc\":" << usableThreads()
        << ",\"build_type\":" << quote(HOSTBENCH_BUILD_TYPE)
        << ",\"compiler\":" << quote(HOSTBENCH_COMPILER)
        << ",\"workload\":" << quote(options.workload)
        << ",\"seed\":" << options.seed
        << ",\"seconds\":" << number(options.seconds)
        << ",\"trace\":" << flag(options.trace)
        << ",\"scale\":" << number(options.scale) << ",\"params\":{";
    bool first = true;
    for (const auto &[name, value] : result.params()) {
        out << (first ? "" : ",") << quote(name) << ":" << value;
        first = false;
    }
    out << "},\"runtime_config\":{"
        << "\"intern\":"
        << setting(flag(runtime.internEnabled()), runtime.internOrigin())
        << ",\"prefix_tree\":"
        << setting(flag(runtime.prefixTree()),
                   runtime.prefixTreeOrigin())
        << ",\"segment_sharing\":"
        << setting(flag(runtime.segmentSharing()),
                   runtime.segmentSharingOrigin())
        << ",\"adaptive_sync\":"
        << setting(flag(runtime.adaptiveSync()),
                   runtime.adaptiveSyncOrigin())
        << ",\"jobs\":"
        << setting(std::to_string(runtime.jobs()), runtime.jobsOrigin())
        << ",\"sweep\":"
        << setting(flag(runtime.sweep()), runtime.sweepOrigin())
        << ",\"serve_readers\":"
        << setting(std::to_string(runtime.serveReaders()),
                   runtime.serveReadersOrigin())
        << ",\"snapshot_every\":"
        << setting(std::to_string(runtime.snapshotEvery()),
                   runtime.snapshotEveryOrigin())
        << ",\"query_mix\":"
        << setting(quote(runtime.queryMix()), runtime.queryMixOrigin())
        << ",\"max_paths\":"
        << setting(std::to_string(runtime.maxPaths()),
                   runtime.maxPathsOrigin())
        << ",\"mrai_ms\":"
        << setting(std::to_string(runtime.mraiMs()),
                   runtime.mraiMsOrigin())
        << ",\"damping\":"
        << setting(flag(runtime.damping()), runtime.dampingOrigin())
        << "}}";
    return out.str();
}

void
printResult(const Options &options, const Result &result)
{
    std::cout << "hostbench " << options.workload << " seed "
              << options.seed << (options.trace ? " (traced)" : "")
              << "\n";
    for (const std::string &line : result.notes())
        std::cout << "  " << line << "\n";
    for (const std::string &failure : result.failures())
        std::cout << "  check failed: " << failure << "\n";

    const std::vector<MetricSpec> &specs =
        options.trace ? perLayerMetrics() : endToEndMetrics();
    std::string metrics;
    for (const MetricSpec &spec : specs) {
        double value = result.get(spec.name);
        char row[160];
        std::snprintf(row, sizeof row, "  %-32s %18.6g %s\n", spec.name,
                      value, spec.unit);
        std::cout << row;
        metrics += std::string(metrics.empty() ? "" : ",") +
                   quote(spec.name) + ":{\"value\":" + number(value) +
                   ",\"unit\":" + quote(spec.unit) + "}";
    }
    double ratio = result.attempted()
                       ? double(result.failed()) /
                             double(result.attempted())
                       : 1.0;
    std::cout << "  fail_ratio " << number(ratio) << " ("
              << result.failed() << " of " << result.attempted()
              << " operations)\n";
    std::cout << "manifest: " << manifestJson(options, result) << "\n";
    std::cout << "{\"correct\":" << (result.correct() ? "true" : "false")
              << ",\"attempted\":" << result.attempted()
              << ",\"failed\":" << result.failed() << ",\"metrics\":{"
              << metrics << "}}" << std::endl;
}

double
peakRssMb()
{
    return double(obs::readProcessMemory().vmHwmKb) / 1024.0;
}

void
releaseFreedMemory()
{
    malloc_trim(0);
}

// ---------------------------------------------------------------- trace

void
UpdateTracer::begin(uint64_t start)
{
    start_ = start;
    firstTransmit_ = 0;
    processed_ = 0;
    children_.clear();
}

void
UpdateTracer::noteTransmit()
{
    if (firstTransmit_ == 0)
        firstTransmit_ = nowNs();
}

void
UpdateTracer::noteProcessed()
{
    processed_ = nowNs();
}

void
UpdateTracer::noteFibInstall(uint64_t start, uint64_t end)
{
    fibInstallNs += end - start;
    children_.push_back(Span{start, end, 0, SpanKind::FibInstall});
}

void
UpdateTracer::noteSnapshotBuild(uint64_t start, uint64_t end)
{
    children_.push_back(Span{start, end, 0, SpanKind::SnapshotBuild});
}

void
UpdateTracer::end(uint64_t end)
{
    receiveNs += end - start_;
    // No processed mark means no UPDATE was handled (a KEEPALIVE, say):
    // the whole call counts as import.
    uint64_t processed = processed_ ? processed_ : end;
    uint64_t split = firstTransmit_ ? firstTransmit_ : processed;
    importDecideNs += split - start_;
    exportNs += processed - split;

    uint32_t root = log_->add(SpanKind::Update, start_, end);
    uint32_t import =
        log_->add(SpanKind::ImportDecide, start_, split, root);
    if (processed > split)
        log_->add(SpanKind::Export, split, processed, root);
    for (const Span &child : children_)
        log_->add(child.kind, child.startNs, child.endNs, import);
}

// ----------------------------------------------------------------- sink

void
RouterSink::onTransmit(bgp::PeerId, bgp::MessageType type,
                       net::WireSegmentPtr wire, size_t transactions)
{
    if (type == bgp::MessageType::Notification)
        ++notifications;
    if (type == bgp::MessageType::Update) {
        ++outUpdates;
        outPrefixes += transactions;
        outBytes += wire ? wire->size() : 0;
        if (tracer)
            tracer->noteTransmit();
    }
}

void
RouterSink::onFibUpdate(const bgp::FibUpdate &update)
{
    uint64_t start = tracer ? nowNs() : 0;
    ++fibUpdates;
    if (update.isWithdraw()) {
        fib.remove(update.prefix);
    } else {
        fib::FibEntry entry;
        entry.nextHop = *update.nextHop;
        entry.extraHops = update.extraHops;
        fib.install(update.prefix, std::move(entry));
    }
    if (tracer)
        tracer->noteFibInstall(start, nowNs());
}

void
RouterSink::onSessionStateChange(bgp::PeerId, bgp::SessionState previous,
                                 bgp::SessionState current)
{
    if (previous == bgp::SessionState::Established &&
        current != bgp::SessionState::Established)
        ++sessionDrops;
}

void
RouterSink::onUpdateProcessed(bgp::PeerId, const bgp::UpdateStats &)
{
    if (tracer)
        tracer->noteProcessed();
}

LayerCounters::Totals
LayerCounters::sample(const bgp::BgpSpeaker &speaker,
                      const RouterSink &sink) const
{
    const bgp::SpeakerCounters &counters = speaker.counters();
    bgp::AttributeInterner::Stats intern =
        bgp::AttributeInterner::global().stats();
    net::BufferPool::Stats pool = net::BufferPool::global().stats();
    Totals now;
    now.decisions = counters.decisionRuns;
    now.transactions = counters.transactionsProcessed();
    now.updatesIn = counters.updatesReceived;
    now.outUpdates = sink.outUpdates;
    now.outPrefixes = sink.outPrefixes;
    now.outBytes = sink.outBytes;
    now.fibUpdates = sink.fibUpdates;
    now.policyEvals = registry_.counterValue(obs::metric::bgpPolicyEvals);
    now.policyRejects =
        registry_.counterValue(obs::metric::bgpPolicyRejects);
    now.internLookups = intern.lookups;
    now.internHits = intern.hits;
    now.poolAcquires = pool.acquires;
    now.poolHits = pool.hits;
    now.sharedEncodes = pool.sharedEncodes;
    return now;
}

void
LayerCounters::begin(bgp::BgpSpeaker &speaker, const RouterSink &sink)
{
    speaker.bindObservability(&registry_, nullptr, 0);
    before_ = sample(speaker, sink);
}

void
LayerCounters::end(bgp::BgpSpeaker &speaker, const RouterSink &sink)
{
    Totals after = sample(speaker, sink);
    speaker.bindObservability(nullptr, nullptr, 0);
    ++passes_;
    sum_.decisions += after.decisions - before_.decisions;
    sum_.transactions += after.transactions - before_.transactions;
    sum_.updatesIn += after.updatesIn - before_.updatesIn;
    sum_.outUpdates += after.outUpdates - before_.outUpdates;
    sum_.outPrefixes += after.outPrefixes - before_.outPrefixes;
    sum_.outBytes += after.outBytes - before_.outBytes;
    sum_.fibUpdates += after.fibUpdates - before_.fibUpdates;
    sum_.policyEvals += after.policyEvals - before_.policyEvals;
    sum_.policyRejects += after.policyRejects - before_.policyRejects;
    sum_.internLookups += after.internLookups - before_.internLookups;
    sum_.internHits += after.internHits - before_.internHits;
    sum_.poolAcquires += after.poolAcquires - before_.poolAcquires;
    sum_.poolHits += after.poolHits - before_.poolHits;
    sum_.sharedEncodes += after.sharedEncodes - before_.sharedEncodes;
}

void
LayerCounters::report(Result &result, const UpdateTracer &tracer,
                      const bgp::BgpSpeaker &speaker) const
{
    auto ratio = [](uint64_t part, uint64_t whole) {
        return whole ? double(part) / double(whole) : 0.0;
    };
    const double passes = double(std::max(1, passes_));
    result.set("bgp.receive_busy_s", double(tracer.receiveNs) / 1e9 / passes);
    result.set("bgp.import_decide_s",
               double(tracer.importDecideNs) / 1e9 / passes);
    result.set("bgp.export_s", double(tracer.exportNs) / 1e9 / passes);
    result.set("bgp.decisions_per_txn",
               ratio(sum_.decisions, sum_.transactions));
    result.set("bgp.prefixes_per_out_update",
               ratio(sum_.outPrefixes, sum_.outUpdates));
    result.set("bgp.out_updates_per_in_update",
               ratio(sum_.outUpdates, sum_.updatesIn));
    result.set("bgp.out_bytes_per_prefix",
               ratio(sum_.outBytes, sum_.outPrefixes));
    size_t ribRoutes = speaker.locRib().size();
    for (bgp::PeerId peer : speaker.peerIds()) {
        ribRoutes +=
            speaker.adjRibIn(peer).size() + speaker.adjRibOut(peer).size();
    }
    result.set("bgp.rib_bytes_per_route",
               ratio(speaker.ribMemoryBytes(), ribRoutes));
    result.set("bgp.intern_hit_ratio",
               ratio(sum_.internHits, sum_.internLookups));
    result.set("bgp.policy_evals", double(sum_.policyEvals) / passes);
    result.set("bgp.policy_rejects", double(sum_.policyRejects) / passes);
    result.set("bgp.notifications_sent",
               double(speaker.counters().notificationsSent));
    result.set("fib.install_s", double(tracer.fibInstallNs) / 1e9 / passes);
    result.set("fib.updates_per_txn",
               ratio(sum_.fibUpdates, sum_.transactions));
    result.set("net.wire_pool_hit_ratio",
               ratio(sum_.poolHits, sum_.poolAcquires));
    result.set("net.wire_shared_encodes",
               double(sum_.sharedEncodes) / passes);
}

void
TimedPublisher::onRibPublish(const bgp::LocRib &rib, uint64_t version,
                             bgp::SessionFsm::TimeNs now)
{
    uint64_t start = nowNs();
    publisher_.onRibPublish(rib, version, now);
    uint64_t end = nowNs();
    buildMs.push_back(double(end - start) / 1e6);
    if (tracer)
        tracer->noteSnapshotBuild(start, end);
}

// ------------------------------------------------------------ read side

struct ReadSide::Reader
{
    Reader(std::vector<net::Prefix> targets, uint64_t seed,
           uint32_t index)
        : stream(std::move(targets), streamConfig(seed)),
          log(index + 1, 20000)
    {}

    static workload::QueryStreamConfig
    streamConfig(uint64_t seed)
    {
        workload::QueryStreamConfig config;
        config.seed = seed;
        return config;
    }

    workload::QueryStream stream;
    SpanLog log;
    ReadReport report;
    /** The last snapshot this reader checksum-verified. */
    serve::RibSnapshotPtr verified;
    std::thread thread;
};

ReadSide::ReadSide(Acquire acquire, std::vector<net::Prefix> targets,
                   std::vector<net::Prefix> mayBeAbsent, size_t readers,
                   uint64_t seed, bool traced)
    : acquire_(std::move(acquire)), mayBeAbsent_(std::move(mayBeAbsent)),
      traced_(traced)
{
    for (size_t i = 0; i < readers; ++i) {
        readers_.push_back(std::make_unique<Reader>(
            targets, seed * 1000003 + i, uint32_t(i)));
    }
}

ReadSide::~ReadSide()
{
    stop();
}

void
ReadSide::start()
{
    stop_.store(false);
    startNs_ = nowNs();
    for (auto &reader : readers_) {
        Reader *r = reader.get();
        r->thread = std::thread([this, r] { loop(*r); });
    }
}

void
ReadSide::stop()
{
    stop_.store(true);
    bool running = false;
    for (auto &reader : readers_) {
        if (reader->thread.joinable()) {
            reader->thread.join();
            running = true;
        }
    }
    if (running)
        wallNs_ += nowNs() - startNs_;
}

ReadReport
ReadSide::report() const
{
    ReadReport merged;
    merged.wallSeconds = double(wallNs_) / 1e9;
    for (const auto &reader : readers_) {
        const ReadReport &r = reader->report;
        merged.queries += r.queries;
        merged.latency.merge(r.latency);
        for (int k = 0; k < 4; ++k)
            merged.perClass[k].merge(r.perClass[k]);
        merged.lookupVisited += r.lookupVisited;
        merged.lookupsTraced += r.lookupsTraced;
        merged.wrongAnswers += r.wrongAnswers;
        merged.badSnapshots += r.badSnapshots;
        merged.snapshotsVerified += r.snapshotsVerified;
    }
    return merged;
}

void
ReadSide::burst(double seconds)
{
    start();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop();
}

void
checkReads(Result &result, const ReadReport &read)
{
    result.attempt(read.queries);
    result.expect(read.wrongAnswers == 0,
                  std::to_string(read.wrongAnswers) + " wrong answers");
    result.expect(read.badSnapshots == 0,
                  "a snapshot failed its checksum");
    result.expect(read.snapshotsVerified > 0, "no snapshot was verified");
}

bool
ReadSide::mayMiss(const net::Prefix &prefix) const
{
    return std::binary_search(mayBeAbsent_.begin(), mayBeAbsent_.end(),
                              prefix);
}

bool
ReadSide::mayMiss(net::Ipv4Address addr) const
{
    for (int length = 0; length <= 32 && !mayBeAbsent_.empty(); ++length) {
        if (mayMiss(net::Prefix(addr, length)))
            return true;
    }
    return false;
}

std::vector<const SpanLog *>
ReadSide::logs() const
{
    std::vector<const SpanLog *> logs;
    for (const auto &reader : readers_)
        logs.push_back(&reader->log);
    return logs;
}

void
ReadSide::loop(Reader &reader)
{
    using workload::QueryKind;
    constexpr size_t kBatch = 64;
    constexpr size_t kScanLimit = 64;
    ReadReport &report = reader.report;
    while (!stop_.load(std::memory_order_relaxed)) {
        serve::RibSnapshotPtr snapshot = acquire_();
        if (snapshot != reader.verified) {
            // Verify each snapshot once, outside the timed queries.
            reader.verified = snapshot;
            ++report.snapshotsVerified;
            if (!snapshot->verifyChecksum())
                ++report.badSnapshots;
        }
        for (size_t i = 0; i < kBatch; ++i) {
            workload::Query query = reader.stream.next();
            bool ok = true;
            bool traced = traced_ && report.queries % 64 == 0;
            int visited = 0;
            uint64_t start = nowNs();
            switch (query.kind) {
              case QueryKind::Lookup: {
                const serve::SnapshotRoute *route = snapshot->lookup(
                    query.addr, traced_ ? &visited : nullptr);
                ok = route ? route->prefix.contains(query.addr)
                           : mayMiss(query.addr);
                break;
              }
              case QueryKind::BestPath: {
                const serve::SnapshotRoute *route =
                    snapshot->bestPath(query.prefix);
                ok = route ? route->prefix == query.prefix
                           : mayMiss(query.prefix);
                break;
              }
              case QueryKind::Scan: {
                snapshot->scan(query.prefix, kScanLimit,
                               [&](const serve::SnapshotRoute &route) {
                                   ok = ok &&
                                        query.prefix.covers(route.prefix);
                               });
                break;
              }
              case QueryKind::PeerStats: {
                uint64_t total = 0;
                for (const auto &peer : snapshot->peerSummaries())
                    total += peer.bestPaths;
                ok = total == snapshot->size();
                break;
              }
            }
            uint64_t end = nowNs();
            report.latency.record(end - start);
            report.perClass[size_t(query.kind)].record(end - start);
            if (traced_ && query.kind == QueryKind::Lookup) {
                report.lookupVisited += uint64_t(visited);
                ++report.lookupsTraced;
            }
            if (traced)
                reader.log.add(SpanKind::Query, start, end);
            if (!ok)
                ++report.wrongAnswers;
            ++report.queries;
        }
    }
}

// -------------------------------------------------------------- routers

void
establishPeer(bgp::BgpSpeaker &speaker, bgp::PeerId id, bgp::AsNumber asn,
              bgp::RouterId routerId)
{
    speaker.startPeer(id, 0);
    speaker.tcpEstablished(id, 0);
    bgp::OpenMessage open;
    open.myAs = asn;
    open.bgpIdentifier = routerId;
    speaker.receiveBytes(id, bgp::encodeMessage(open), 0);
    speaker.receiveBytes(id, bgp::encodeMessage(bgp::KeepaliveMessage{}),
                         0);
}

void
checkRouter(Result &result, const bgp::BgpSpeaker &speaker,
            const RouterSink &sink, const std::vector<bgp::PeerId> &feeds,
            size_t routes, const std::vector<net::Prefix> &sample)
{
    result.expect(speaker.counters().notificationsSent == 0 &&
                      sink.notifications == 0,
                  "a NOTIFICATION was sent");
    result.expect(sink.sessionDrops == 0, "a session dropped");
    for (bgp::PeerId peer : speaker.peerIds()) {
        result.expect(speaker.sessionState(peer) ==
                          bgp::SessionState::Established,
                      "peer " + std::to_string(peer) +
                          " is not established");
    }
    const bgp::LocRib &loc = speaker.locRib();
    result.expect(loc.size() == routes,
                  "Loc-RIB holds " + std::to_string(loc.size()) +
                      " routes, expected " + std::to_string(routes));
    for (bgp::PeerId peer : feeds) {
        size_t in = speaker.adjRibIn(peer).size();
        result.expect(in == routes,
                      "Adj-RIB-In of peer " + std::to_string(peer) +
                          " holds " + std::to_string(in) + " routes");
    }
    result.expect(sink.fib.size() == loc.size(),
                  "FIB holds " + std::to_string(sink.fib.size()) +
                      " routes, Loc-RIB " + std::to_string(loc.size()));
    for (const net::Prefix &prefix : sample) {
        const bgp::LocRib::Entry *entry = loc.find(prefix);
        const fib::FibEntry *fib = sink.fib.exact(prefix);
        bool same = entry && fib && entry->best.attributes &&
                    entry->best.attributes->nextHop == fib->nextHop;
        result.expect(same, "FIB next hop of " + prefix.toString() +
                                " differs from the Loc-RIB best path");
    }
}

std::vector<net::Prefix>
samplePrefixes(const std::vector<net::Prefix> &prefixes, size_t count,
               uint64_t seed)
{
    std::vector<net::Prefix> sample;
    if (prefixes.empty())
        return sample;
    workload::Rng rng(seed);
    for (size_t i = 0; i < count; ++i)
        sample.push_back(prefixes[rng.below(prefixes.size())]);
    return sample;
}

Result
runWorkload(const Options &options)
{
    if (options.workload == "fullfeed")
        return runFullfeed(options);
    if (options.workload == "churn")
        return runChurn(options);
    if (options.workload == "topo")
        return runTopo(options);
    fatal("hostbench: unknown workload " + options.workload);
}

void
reportServe(Result &result, const ReadReport &read,
            const std::vector<double> &buildMs, double snapshots)
{
    if (!buildMs.empty()) {
        result.set("serve.snapshot_build_ms_p50",
                   stats::summarize(buildMs).p50);
        result.set("serve.snapshot_build_ms_max",
                   *std::max_element(buildMs.begin(), buildMs.end()));
    }
    result.set("serve.snapshots", snapshots);
    result.set("serve.lookup_ns_p50", read.perClass[0].quantile(0.5));
    result.set("serve.best_path_ns_p50", read.perClass[1].quantile(0.5));
    result.set("serve.scan_ns_p50", read.perClass[2].quantile(0.5));
    result.set("serve.lookup_trie_nodes",
               read.lookupsTraced ? double(read.lookupVisited) /
                                        double(read.lookupsTraced)
                                  : 0.0);
}

void
finishTrace(Result &result, const Options &options,
            const std::vector<double> &untraced,
            const std::vector<double> &traced,
            std::vector<const SpanLog *> logs)
{
    // Both ratios compare mean pass times: rate = work / time, and
    // every pass does the same work.
    double overhead =
        stats::summarize(traced).mean / stats::summarize(untraced).mean;
    result.set("trace_overhead_tps", 1.0 / overhead);
    result.set("trace_overhead_converge_s", overhead);
    std::string path = options.traceDir + "/hostbench-" + options.workload +
                       "-seed" + std::to_string(options.seed) +
                       ".trace.json";
    result.expect(writeTraceFile(path, logs, manifestJson(options, result)),
                  "could not write " + path);
    uint64_t dropped = 0;
    for (const SpanLog *log : logs)
        dropped += log->dropped();
    result.note("spans written to " + path + " (" + std::to_string(dropped) +
                " past the cap counted, not kept)");
}

} // namespace hostbench
