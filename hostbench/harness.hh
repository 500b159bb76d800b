/**
 * @file
 * The pieces every workload of the host-time benchmark shares: run
 * options, the metric catalogue and result, the router sink that
 * applies FIB updates to a real forwarding table, the per-UPDATE
 * layer timing, the timed snapshot publisher, and the read side.
 */

#ifndef HOSTBENCH_HARNESS_HH
#define HOSTBENCH_HARNESS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bgp/speaker.hh"
#include "fib/forwarding_table.hh"
#include "obs/metrics.hh"
#include "serve/publisher.hh"
#include "serve/snapshot.hh"
#include "workload/query_stream.hh"

#include "stats.hh"
#include "trace.hh"

namespace hostbench
{

namespace bgp = bgpbench::bgp;
namespace fib = bgpbench::fib;
namespace net = bgpbench::net;
namespace serve = bgpbench::serve;
namespace workload = bgpbench::workload;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the measured region. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Multiplies every workload size; tests run at tiny scale. */
    double scale = 1.0;
    /** Directory the traced run writes its span file into. */
    std::string traceDir = ".";
    /** Revision and source digest, passed in by the launcher. */
    std::string gitSha = "unknown";
    std::string sourceDigest = "unknown";
};

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Metrics of the untraced run, reported by every workload. */
const std::vector<MetricSpec> &endToEndMetrics();
/** Metrics of the traced run, reported by every workload. */
const std::vector<MetricSpec> &perLayerMetrics();
/** The workloads, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Threads available to one run: hardware concurrency, at least 1.
 * Readers get usableThreads() - 2 of them (at least 1).
 */
size_t usableThreads();
size_t readerThreads();

/** What one run prints. */
class Result
{
  public:
    /** Record a metric value; fatal for a name not in the catalogue. */
    void set(const std::string &name, double value);
    /** Value of a recorded metric, or 0. */
    double get(const std::string &name) const;

    /** Operations performed (UPDATEs, queries, scenario runs). */
    void attempt(uint64_t operations) { attempted_ += operations; }
    /** An output check: a failure counts as one failed operation. */
    void expect(bool ok, const std::string &what);

    /** A workload parameter for the run manifest. */
    void param(const std::string &name, const std::string &value);
    void param(const std::string &name, double value);
    /** A human-readable line printed above the metric table. */
    void note(const std::string &line) { notes_.push_back(line); }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && attempted_ > 0; }
    const std::vector<std::string> &failures() const { return failures_; }
    const std::vector<std::pair<std::string, std::string>> &
    params() const
    {
        return params_;
    }
    const std::vector<std::string> &notes() const { return notes_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::vector<std::pair<std::string, std::string>> params_;
    std::vector<std::string> notes_;
    std::vector<std::pair<std::string, double>> values_;
};

/** The run manifest as one JSON object. */
std::string manifestJson(const Options &options, const Result &result);

/**
 * Print the notes, the metric table and the manifest, then as the
 * last line the result object the benchmark contract asks for.
 */
void printResult(const Options &options, const Result &result);

/** Peak resident set size of the process (VmHWM), MiB. */
double peakRssMb();

/**
 * Return freed heap pages to the system, so what one pass tore down
 * does not linger in the resident set and skew the next one's peak.
 */
void releaseFreedMemory();

/**
 * Per-UPDATE layer timing of the traced run. The benchmark times
 * receiveSegment() itself; the sink reports the first transmit, each
 * FIB install, each snapshot build and the end of processing, which
 * split the call into import+decide (start to first transmit) and
 * export (first transmit to onUpdateProcessed).
 */
class UpdateTracer
{
  public:
    explicit UpdateTracer(SpanLog *log) : log_(log) {}

    void begin(uint64_t start);
    /** Close the UPDATE that began at begin() and ended at @p end. */
    void end(uint64_t end);

    void noteTransmit();
    void noteProcessed();
    void noteFibInstall(uint64_t start, uint64_t end);
    void noteSnapshotBuild(uint64_t start, uint64_t end);

    /** Layer totals since construction, nanoseconds. */
    uint64_t receiveNs = 0;
    uint64_t importDecideNs = 0;
    uint64_t exportNs = 0;
    uint64_t fibInstallNs = 0;

  private:
    SpanLog *log_;
    uint64_t start_ = 0;
    uint64_t firstTransmit_ = 0;
    uint64_t processed_ = 0;
    /** Children of the open UPDATE, emitted when it closes. */
    std::vector<Span> children_;
};

/**
 * The owner of one speaker: applies every FibUpdate to a real
 * forwarding table, counts what goes out, and watches sessions.
 */
class RouterSink : public bgp::SpeakerEvents
{
  public:
    void onTransmit(bgp::PeerId to, bgp::MessageType type,
                    net::WireSegmentPtr wire,
                    size_t transactions) override;
    void onFibUpdate(const bgp::FibUpdate &update) override;
    void onSessionStateChange(bgp::PeerId peer,
                              bgp::SessionState previous,
                              bgp::SessionState current) override;
    void onUpdateProcessed(bgp::PeerId from,
                           const bgp::UpdateStats &stats) override;

    fib::ForwardingTable fib;
    /** Null except while a traced pass runs. */
    UpdateTracer *tracer = nullptr;

    uint64_t outUpdates = 0;
    uint64_t outPrefixes = 0;
    uint64_t outBytes = 0;
    uint64_t notifications = 0;
    uint64_t sessionDrops = 0;
    uint64_t fibUpdates = 0;
};

/**
 * The bgp, fib and net layer counters of one speaker over the traced
 * passes of a workload: begin() and end() bracket a traced pass and
 * add up the deltas; report() records them per traced pass.
 */
class LayerCounters
{
  public:
    /** Bind the speaker to the registry and note every counter. */
    void begin(bgp::BgpSpeaker &speaker, const RouterSink &sink);
    /** Add the deltas since begin() and unbind the registry. */
    void end(bgp::BgpSpeaker &speaker, const RouterSink &sink);
    /** The bgp.*, fib.* and net.* metrics, per traced pass. */
    void report(Result &result, const UpdateTracer &tracer,
                const bgp::BgpSpeaker &speaker) const;

    int passes() const { return passes_; }

  private:
    struct Totals
    {
        uint64_t decisions = 0;
        uint64_t transactions = 0;
        uint64_t updatesIn = 0;
        uint64_t outUpdates = 0;
        uint64_t outPrefixes = 0;
        uint64_t outBytes = 0;
        uint64_t fibUpdates = 0;
        uint64_t policyEvals = 0;
        uint64_t policyRejects = 0;
        uint64_t internLookups = 0;
        uint64_t internHits = 0;
        uint64_t poolAcquires = 0;
        uint64_t poolHits = 0;
        uint64_t sharedEncodes = 0;
    };

    /** Every counter as it stands now. */
    Totals sample(const bgp::BgpSpeaker &speaker,
                  const RouterSink &sink) const;

    bgpbench::obs::MetricRegistry registry_;
    Totals before_;
    Totals sum_;
    int passes_ = 0;
};

/**
 * Snapshot publication for the read side: builds each RibSnapshot
 * through serve::SnapshotPublisher and times the build.
 */
class TimedPublisher : public bgp::RibListener
{
  public:
    void onRibPublish(const bgp::LocRib &rib, uint64_t version,
                      bgp::SessionFsm::TimeNs now) override;

    serve::RibSnapshotPtr current() const { return publisher_.current(); }

    /** Build times, milliseconds, one per publication. */
    std::vector<double> buildMs;
    /** Set while a traced pass runs. */
    UpdateTracer *tracer = nullptr;

  private:
    serve::SnapshotPublisher publisher_;
};

/** Everything the read side measured. */
struct ReadReport
{
    uint64_t queries = 0;
    double wallSeconds = 0.0;
    LatencyHistogram latency;
    /** Per workload::QueryKind. */
    LatencyHistogram perClass[4];
    uint64_t lookupVisited = 0;
    uint64_t lookupsTraced = 0;
    uint64_t wrongAnswers = 0;
    uint64_t badSnapshots = 0;
    uint64_t snapshotsVerified = 0;

    double
    queriesPerSecond() const
    {
        return wallSeconds > 0 ? double(queries) / wallSeconds : 0.0;
    }
};

/**
 * Closed-loop readers: each thread sends the next query as soon as
 * the previous one returns, against the newest snapshot @p acquire
 * yields (re-acquired every batch). Every lookup answer must cover
 * the queried address, every best path must be the asked prefix,
 * every scan row must lie in the range, peer summaries must add up
 * to the table size, and every snapshot a reader sees is
 * checksum-verified once. Every target is in the table, so a lookup
 * or best-path query without an answer is wrong, unless the target
 * lies in a prefix the workload may have withdrawn at that moment.
 * The readers run in bursts (start() .. stop()); report() covers all
 * bursts so far.
 */
class ReadSide
{
  public:
    using Acquire = std::function<serve::RibSnapshotPtr()>;

    /**
     * @param mayBeAbsent Sorted prefixes a snapshot may lack (empty
     *        for a full, static table).
     * @param traced Count trie nodes per lookup and keep a span for
     *        every 64th query in logs() (one log per reader).
     */
    ReadSide(Acquire acquire, std::vector<net::Prefix> targets,
             std::vector<net::Prefix> mayBeAbsent, size_t readers,
             uint64_t seed, bool traced);
    ~ReadSide();

    ReadSide(const ReadSide &) = delete;
    ReadSide &operator=(const ReadSide &) = delete;

    /** Start a burst. */
    void start();
    /** End the burst: stop and join the readers. */
    void stop();
    /** Everything measured in the bursts so far. */
    ReadReport report() const;
    /** Run one burst of @p seconds. */
    void burst(double seconds);

    /** The readers' span logs (read between bursts). */
    std::vector<const SpanLog *> logs() const;

  private:
    struct Reader;

    void loop(Reader &reader);
    /** True if a query for @p addr may go unanswered. */
    bool mayMiss(net::Ipv4Address addr) const;
    bool mayMiss(const net::Prefix &prefix) const;

    Acquire acquire_;
    std::vector<net::Prefix> mayBeAbsent_;
    bool traced_;
    std::vector<std::unique_ptr<Reader>> readers_;
    std::atomic<bool> stop_{false};
    uint64_t startNs_ = 0;
    uint64_t wallNs_ = 0;
};

/**
 * The read-side checks: no wrong answer, no snapshot failing its
 * checksum, and at least one snapshot verified.
 */
void checkReads(Result &result, const ReadReport &read);

/** Establish a session with @p speaker over the wire (OPEN+KEEPALIVE). */
void establishPeer(bgp::BgpSpeaker &speaker, bgp::PeerId id,
                   bgp::AsNumber asn, bgp::RouterId routerId);

/**
 * The output checks shared by fullfeed and churn, after a pass:
 * no NOTIFICATION, no dropped session, the Loc-RIB and every feed's
 * Adj-RIB-In at @p routes, the FIB as large as the Loc-RIB, and for a
 * seeded sample of prefixes the FIB next hop equal to the Loc-RIB best
 * path's.
 */
void checkRouter(Result &result, const bgp::BgpSpeaker &speaker,
                 const RouterSink &sink,
                 const std::vector<bgp::PeerId> &feeds, size_t routes,
                 const std::vector<net::Prefix> &sample);

/** @p count prefixes of @p prefixes drawn with @p seed. */
std::vector<net::Prefix> samplePrefixes(
    const std::vector<net::Prefix> &prefixes, size_t count,
    uint64_t seed);

/** Workload entry points. */
Result runFullfeed(const Options &options);
Result runChurn(const Options &options);
Result runTopo(const Options &options);

/** Dispatch on options.workload; fatal on an unknown name. */
Result runWorkload(const Options &options);

/**
 * The serve.* metrics: per-class query medians and trie nodes from
 * @p read, build times and count from @p buildMs.
 */
void reportServe(Result &result, const ReadReport &read,
                 const std::vector<double> &buildMs, double snapshots);

/**
 * End a traced run: record the tracing overhead from the untraced and
 * traced pass times, and write @p logs to the span file. A per-layer
 * metric the workload does not exercise stays unrecorded and prints
 * as 0.
 */
void finishTrace(Result &result, const Options &options,
                 const std::vector<double> &untraced,
                 const std::vector<double> &traced,
                 std::vector<const SpanLog *> logs);

} // namespace hostbench

#endif // HOSTBENCH_HARNESS_HH
