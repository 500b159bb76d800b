/**
 * @file
 * BgpSpeaker: a complete BGP-4 speaker tying together sessions, the
 * RIBs, the policy engine, the decision process, and outbound update
 * packing.
 *
 * The speaker is transport-agnostic and clock-explicit: the owner
 * delivers bytes (or decoded messages) with a timestamp and receives
 * transmissions, FIB changes, and statistics through the
 * SpeakerEvents interface. This is what lets the same protocol engine
 * run (a) standalone in examples and tests, (b) as the zero-cost test
 * speakers of the benchmark harness, and (c) inside the simulated
 * router systems where every operation is charged virtual CPU cycles.
 */

#ifndef BGPBENCH_BGP_SPEAKER_HH
#define BGPBENCH_BGP_SPEAKER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/damping.hh"
#include "bgp/decision.hh"
#include "bgp/message.hh"
#include "bgp/policy.hh"
#include "bgp/rib.hh"
#include "bgp/route.hh"
#include "bgp/session.hh"
#include "bgp/update_builder.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "net/flat_index.hh"
#include "net/ipv4_address.hh"
#include "net/prefix.hh"

namespace bgpbench::bgp
{

/** Speaker-wide configuration. */
struct SpeakerConfig
{
    AsNumber localAs = 0;
    RouterId routerId = 0;
    /** Address installed as NEXT_HOP on eBGP advertisements. */
    net::Ipv4Address localAddress;
    uint16_t holdTimeSec = proto::defaultHoldTimeSec;
    /**
     * Vendor "maximum-paths": the ECMP group depth of the decision
     * process (see selectMultipath). 1 is the classic single best
     * path.
     */
    size_t maxPaths = 1;
    /** Route flap damping (RFC 2439); disabled by default. */
    DampingConfig damping;
    /**
     * Minimum Route Advertisement Interval per session, in ns of the
     * speaker's virtual clock (RFC 4271 section 9.2.1.1, applied per
     * peer rather than per destination). 0 disables MRAI batching —
     * the paper's measurements run without it, so 0 is the default.
     * While the interval runs, outbound changes stay queued in the
     * peer's UpdateBuilder, where supersession collapses transient
     * announce/withdraw churn before anything reaches the wire.
     */
    uint64_t mraiNs = 0;
    /**
     * Route-reflection cluster id (RFC 4456); 0 means "use the
     * router id". Only meaningful when peers are marked as clients.
     */
    uint32_t clusterId = 0;
};

/** Per-peer configuration. */
struct PeerConfig
{
    PeerId id = 0;
    /** Peer AS; a value equal to the local AS makes the session iBGP. */
    AsNumber asn = 0;
    net::Ipv4Address address;
    Policy importPolicy;
    Policy exportPolicy;
    /**
     * True if this iBGP peer is a route-reflection client of ours
     * (RFC 4456). iBGP-learned routes are reflected to clients, and
     * client routes are reflected to everyone.
     */
    bool routeReflectorClient = false;
};

/** What the processing of one inbound UPDATE changed. */
struct UpdateStats
{
    /** Loc-RIB entries the UPDATE installed, replaced or removed. */
    size_t locRibChanges = 0;
};

/** Aggregate lifetime counters of a speaker: its one record of what
 *  it did, which a bound metric registry is folded from. */
struct SpeakerCounters
{
    uint64_t updatesReceived = 0;
    uint64_t announcementsProcessed = 0;
    uint64_t withdrawalsProcessed = 0;
    uint64_t decisionRuns = 0;
    /** Also the Loc-RIB version (see RibListener). */
    uint64_t locRibChanges = 0;
    uint64_t fibChanges = 0;
    /** Loc-RIB installs whose group has multipath members (ECMP). */
    uint64_t ecmpGroups = 0;
    uint64_t updatesSent = 0;
    uint64_t prefixesAdvertised = 0;
    uint64_t notificationsSent = 0;
    uint64_t sessionTransitions = 0;
    /** Route-map runs: every import, and every export about to be
     *  sent, through a non-empty policy; and the routes they denied. */
    uint64_t policyEvals = 0;
    uint64_t policyRejects = 0;
    /** Announcements ignored because the route was damped. */
    uint64_t announcementsSuppressed = 0;
    /** Flush rounds where a peer's queue was held back by MRAI. */
    uint64_t mraiDeferrals = 0;

    /** Total inbound routing transactions (paper's metric unit). */
    uint64_t
    transactionsProcessed() const
    {
        return announcementsProcessed + withdrawalsProcessed;
    }
};

/**
 * Event sink for everything a speaker does that the outside world can
 * observe. All callbacks are invoked synchronously from within the
 * speaker call that triggered them, and must not call back into that
 * speaker (queue the work instead): the speaker reuses its decision
 * and flush scratch storage across calls.
 */
class SpeakerEvents
{
  public:
    virtual ~SpeakerEvents() = default;

    /**
     * A message must be transmitted to @p to. One call corresponds to
     * one TCP segment / "packet" in the paper's terminology.
     *
     * @param to Destination peer.
     * @param type Message type (for accounting without re-decoding).
     * @param wire Complete framed wire encoding as a shared immutable
     *             segment. An UPDATE fanned out to several peers
     *             passes the *same* segment to each; sinks must not
     *             assume exclusive ownership.
     * @param transactions Routing transactions carried (UPDATE only).
     */
    virtual void onTransmit(PeerId to, MessageType type,
                            net::WireSegmentPtr wire,
                            size_t transactions) = 0;

    /** The Loc-RIB change requires a forwarding-table change. */
    virtual void onFibUpdate(const FibUpdate &update) { (void)update; }

    /** A session changed FSM state. */
    virtual void
    onSessionStateChange(PeerId peer, SessionState previous,
                         SessionState current)
    {
        (void)peer;
        (void)previous;
        (void)current;
    }

    /**
     * An UPDATE from @p from was decoded, before the session FSM sees
     * it: fires for every inbound UPDATE, whether or not the session
     * is Established and the UPDATE then reaches the RIBs. @p msg
     * carries the interned attributes, so sinks may keep them.
     */
    virtual void
    onUpdateReceived(PeerId from, const UpdateMessage &msg)
    {
        (void)from;
        (void)msg;
    }

    /** An inbound UPDATE finished processing. */
    virtual void
    onUpdateProcessed(PeerId from, const UpdateStats &stats)
    {
        (void)from;
        (void)stats;
    }

    /**
     * The speaker has deferred work (an MRAI-held queue or a damped
     * route awaiting reuse) and asks to have serviceWakeup() called
     * at simulated time @p at or later. Owners without a scheduler
     * may ignore this and keep driving pollTimers() instead; @p at is
     * an upper bound, and serviceWakeup() is idempotent, so spurious
     * or early wakeups are harmless.
     */
    virtual void
    onWakeupRequested(SessionFsm::TimeNs at)
    {
        (void)at;
    }
};

/**
 * Read-side publication hook: a consumer of Loc-RIB versions (the
 * serve-layer snapshot publisher). The speaker invokes it
 * synchronously on its own thread at the configured granularity;
 * implementations must only *read* the RIB (typically copying it
 * into an immutable snapshot) — mutating the speaker from the hook
 * is undefined. Keeping the interface here (rather than in
 * src/serve) lets the protocol library stay ignorant of who consumes
 * the versions.
 */
class RibListener
{
  public:
    virtual ~RibListener() = default;

    /**
     * The Loc-RIB reached a publication point.
     *
     * @param rib The live Loc-RIB (valid only for the duration of
     *        the call; copy what you need).
     * @param version Monotonic Loc-RIB change count — two calls with
     *        the same version have identical content.
     * @param now The speaker's virtual clock at the publication.
     */
    virtual void onRibPublish(const LocRib &rib, uint64_t version,
                              SessionFsm::TimeNs now) = 0;
};

/**
 * A BGP-4 speaker.
 *
 * Typical standalone use:
 * @code
 *   BgpSpeaker speaker(config, &events);
 *   speaker.addPeer(peer_config);
 *   speaker.startPeer(peer_id, now);
 *   speaker.tcpEstablished(peer_id, now);   // transport came up
 *   speaker.receiveBytes(peer_id, bytes, now);
 * @endcode
 */
class BgpSpeaker
{
  public:
    using TimeNs = SessionFsm::TimeNs;

    /**
     * @param config Speaker configuration.
     * @param events Event sink; must outlive the speaker.
     */
    BgpSpeaker(SpeakerConfig config, SpeakerEvents *events);

    /** Register a peer. Fatal if the id is already in use. */
    void addPeer(PeerConfig config);

    /** Begin connecting to a peer (operator ManualStart). */
    void startPeer(PeerId peer, TimeNs now);

    /** Stop a peer session and flush its routes. */
    void stopPeer(PeerId peer, TimeNs now);

    /**
     * The transport to @p peer came up: the OPEN exchange begins on
     * a fresh stream decoder.
     */
    void tcpEstablished(PeerId peer, TimeNs now);

    /**
     * The transport to @p peer dropped: routes are invalidated and
     * the stream decoder starts clean.
     */
    void tcpClosed(PeerId peer, TimeNs now);

    /**
     * The byte stream from @p peer failed to decode with @p error:
     * the session FSM tears the session down, sending the matching
     * NOTIFICATION if the session was up or coming up. The one
     * answer to a malformed stream, whoever decoded it.
     */
    void streamFailed(PeerId peer, const DecodeError &error, TimeNs now);

    /**
     * Deliver raw bytes from @p peer. Frames, decodes, and processes
     * every complete message; on a decode error, streamFailed().
     */
    void receiveBytes(PeerId peer, std::span<const uint8_t> bytes,
                      TimeNs now);

    /**
     * Deliver a shared wire segment from @p peer. Equivalent to
     * receiveBytes() but lets the stream decoder frame over the
     * borrowed segment without a staging copy.
     */
    void receiveSegment(PeerId peer, net::WireSegmentPtr segment,
                        TimeNs now);

    /** Deliver one already-decoded message from @p peer. */
    void handleMessage(PeerId peer, const Message &msg, TimeNs now);

    /** Drive keepalive/hold timers for all sessions, then serviceWakeup(). */
    void pollTimers(TimeNs now);

    /**
     * Service deferred work at a time previously requested through
     * SpeakerEvents::onWakeupRequested(): re-admit damped routes
     * whose suppression lapsed and flush MRAI-held queues whose
     * interval expired. Idempotent — calling with nothing due only
     * re-arms the next wakeup (if any work remains deferred).
     */
    void serviceWakeup(TimeNs now);

    /**
     * Originate a route locally (as if redistributed from an IGP).
     * Runs the decision process and advertises as appropriate.
     */
    void originate(const net::Prefix &prefix, PathAttributesPtr attrs,
                   TimeNs now);

    /** Withdraw a locally originated route. */
    void withdrawLocal(const net::Prefix &prefix, TimeNs now);

    class AdjRibOutView;

    /** @name Introspection
     *  @{
     */
    SessionState sessionState(PeerId peer) const;
    const LocRib &locRib() const { return locRib_; }
    const AdjRibIn &adjRibIn(PeerId peer) const;
    /** What @p peer holds from us (see AdjRibOutView); empty while
     *  its session is not Established. */
    AdjRibOutView adjRibOut(PeerId peer) const;
    const SpeakerCounters &counters() const { return counters_; }
    const SpeakerConfig &config() const { return config_; }

    /**
     * Attach this speaker to a run's observability sinks. It counts
     * only in counters() and its damper, and folds what it counted
     * into @p registry before each public call returns; counts from
     * before this call go to the previously bound registry, if any.
     * Several speakers may share one registry (one per shard) and
     * their counts aggregate. @p track is the trace lane (tid) for
     * this speaker's events — the owning node id in a topology run.
     * Null arguments detach. Trace timestamps come from the
     * caller-supplied virtual clock (the `now` of each entry point),
     * so binding can never perturb simulation behaviour.
     */
    void bindObservability(obs::MetricRegistry *registry,
                           obs::Tracer *tracer, uint32_t track);

    /**
     * Attach a Loc-RIB publication listener (null detaches).
     *
     * @param listener Receives onRibPublish() on this speaker's
     *        thread; must outlive the speaker or be detached first.
     * @param everyDecisions Publication granularity: 0 publishes at
     *        the end of every flush round whose decisions changed the
     *        Loc-RIB (the natural "batch boundary" of UPDATE
     *        processing); N > 0 publishes after every N decision
     *        runs, bounding staleness under long flushes. Either way
     *        a publication only fires when the Loc-RIB actually
     *        changed since the last one.
     */
    void bindRibListener(RibListener *listener,
                         uint64_t everyDecisions = 0);

    /** Monotonic Loc-RIB change count (see RibListener). */
    uint64_t ribVersion() const { return counters_.locRibChanges; }
    /** Flap-damping state (live; decays lazily on access). */
    FlapDamper &damper() { return damper_; }
    std::vector<PeerId> peerIds() const;
    /**
     * Structural bytes held by RIB storage: the shared key table
     * (once) plus every RIB's value column.
     */
    size_t ribMemoryBytes() const;
    /**
     * Tree nodes a lookup of each prefix in the shared prefix table
     * visits, summed (SharedPrefixTable::descentNodes()): a
     * deterministic count of the walk each UPDATE's resolve() repeats.
     */
    size_t prefixTableDescentNodes() const;
    /**
     * Pre-size RIB storage for @p prefixes distinct routes: the
     * shared prefix table (arena and slot arrays) and every existing
     * RIB's column. A router provisioned for a full feed
     * knows its table scale up front; reserving exactly removes the
     * geometric-growth slack from every column. New peers added
     * later still size their columns to the table's capacity.
     */
    void reserveRoutes(size_t prefixes);
    /** @} */

    /** Pseudo peer-id used for locally originated routes. */
    static constexpr PeerId localPeerId = ~PeerId(0);

  private:
    using Slot = SharedPrefixTable::Slot;
    static constexpr Slot noSlot = SharedPrefixTable::npos;

    struct Peer
    {
        PeerConfig config;
        SessionFsm fsm;
        StreamDecoder decoder;
        AdjRibIn ribIn;
        UpdateBuilder pending;
        /**
         * Earliest time the next UPDATE may be sent to this peer
         * (MRAI, RFC 4271 section 9.2.1.1); 0 when the interval is
         * idle. Reset on session loss together with the pending
         * queue.
         */
        TimeNs mraiReadyAt = 0;
        bool externalSession = true;

        Peer(PeerConfig cfg, SessionConfig session_cfg,
             SharedPrefixTable &table)
            : config(std::move(cfg)), fsm(session_cfg), ribIn(table)
        {}
    };

    /** The peer with id @p peer; fatal when none is configured. */
    Peer &peerRef(PeerId peer);
    const Peer &peerRef(PeerId peer) const;

    /**
     * Send session messages (OPEN, KEEPALIVE, NOTIFICATION) to
     * @p peer through the event sink. UPDATEs never come here: they
     * all leave through transmitUpdates(), which counts them.
     */
    void transmit(Peer &peer, const std::vector<Message> &msgs);

    /**
     * Send freshly built UPDATEs to @p peer, encoding each exactly
     * once per flush: a message whose content matches one already
     * encoded for another peer in the same flushPending() round (the
     * common full-mesh fan-out case) reuses the cached shared segment
     * instead of re-encoding. Consumes and clears @p updates.
     */
    void transmitUpdates(Peer &peer, std::vector<UpdateMessage> &updates);

    /** Decode-and-handle loop shared by the receive entry points. */
    void drainDecoder(Peer &peer, TimeNs now);

    /** Process an UPDATE from an established peer. */
    void processUpdate(Peer &from, const UpdateMessage &msg,
                       TimeNs now);

    /**
     * Re-run the decision process for @p prefix and propagate the
     * outcome. One path serves every maximum-paths: selectMultipath
     * fills group_, the Loc-RIB installs the group, the FIB hears of
     * it when its next-hop list changes, and the peers hear of it
     * (updateAdjOut) when its best path changes. With maximum-paths 1
     * the group is the best path alone. @p slot is the prefix's
     * shared-table slot as its last RIB write or withdraw resolved it
     * (noSlot, or a slot that withdraw freed, when no RIB holds the
     * prefix), so the decision walks no tree.
     */
    void runDecision(const net::Prefix &prefix, Slot slot, TimeNs now);

    /**
     * The best path of @p prefix went from @p before to @p after (null:
     * no route). Each Established peer holds export(peer, before), so
     * it is sent export(peer, after) when that differs in value, or a
     * withdrawal when the route is no longer exported to it. The eBGP
     * transform of each side is taken at most once, whatever the
     * number of peers.
     */
    void updateAdjOut(const net::Prefix &prefix, const Candidate *before,
                      const Candidate *after);

    /**
     * export(peer, best): the attributes @p peer is told for @p prefix
     * while @p best is its Loc-RIB best path, or null when the route
     * is withheld. A function of its arguments and the configuration.
     * @p ebgp holds ebgpExport(best.attributes) once an eBGP peer whose
     * route-map left the path as it was has taken it: the caller
     * passes one null local per best path and reuses it across the
     * peers it exports that path to. @p sent is given for an export
     * about to be queued, and the route-map evaluation counts in it;
     * what a peer already holds is derived with null.
     */
    PathAttributesPtr exportTo(const Peer &peer, const net::Prefix &prefix,
                               const Candidate &best,
                               PathAttributesPtr &ebgp,
                               SpeakerCounters *sent) const;

    /** Flush all pending per-peer builders into UPDATE messages. */
    void flushPending(TimeNs now);

    /** Full-table advertisement when a session reaches Established. */
    void advertiseFullTable(Peer &peer, TimeNs now);

    /** Drop all routes learned from @p peer (session loss). */
    void invalidatePeerRoutes(Peer &peer, TimeNs now);

    /**
     * Ask the owner (via SpeakerEvents) for a serviceWakeup() call at
     * @p at or later. Requests already covered by an earlier-or-equal
     * armed wakeup are elided so steady churn does not flood the
     * owner's scheduler.
     */
    void requestWakeup(TimeNs at);

    /** Re-run the decision for damped routes whose suppression lapsed. */
    void readmitReusable(TimeNs now);

    /** Arm the wakeup for the damper's next reuse boundary, if any. */
    void armDampingWakeup(TimeNs now);

    /** Add what was counted since the last fold to the bound
     *  registry; nothing when detached. */
    void foldObservability();

    /** Track FSM state transitions and fire callbacks. */
    void noteStateChange(Peer &peer, SessionState before, TimeNs now);

    /**
     * The eBGP export of @p attrs: the local AS prepended, next-hop
     * self, LOCAL_PREF and the reflection attributes stripped. The
     * result depends on nothing of the peer's, so it is memoised
     * speaker-wide in exportMemo_, whether it is about to be sent or
     * only derived.
     */
    PathAttributesPtr ebgpExport(const PathAttributesPtr &attrs) const;

    /**
     * One encode-once cache entry: the UPDATE exactly as encoded plus
     * its segment. Holding the message (not just a hash) lets cache
     * hits verify full content equality — a hash collision must never
     * put the wrong bytes on a wire.
     */
    struct CachedWire
    {
        UpdateMessage message;
        net::WireSegmentPtr wire;
    };

    /** A count a bound registry carries: its metric name, and where
     *  the speaker keeps it. */
    struct FoldedCount
    {
        const char *name;
        uint64_t (*read)(const SpeakerCounters &, const FlapDamper &);
    };
    static const FoldedCount foldedCounts[13];

    /** The observability sinks; all null when detached. */
    struct ObsHandles
    {
        obs::Tracer *tracer = nullptr;
        uint32_t track = 0;
        /** foldedCounts' registry counters, and the values of their
         *  counts at the last fold. */
        std::array<obs::Counter *, std::size(foldedCounts)> counters{};
        std::array<uint64_t, std::size(foldedCounts)> folded{};
        obs::Histogram *decisionCandidates = nullptr;
    };

    /**
     * Publish the Loc-RIB to the bound listener if it changed since
     * the last publication, and reset the granularity counters.
     */
    void publishRib(TimeNs now);

    /** Per-flush / per-N-decisions publication check. */
    void
    maybePublishRib(TimeNs now, bool flushBoundary)
    {
        if (!ribListener_ || !ribDirty_)
            return;
        if (publishEveryDecisions_ == 0
                ? flushBoundary
                : counters_.decisionRuns - publishedAtDecision_ >=
                      publishEveryDecisions_)
            publishRib(now);
    }

    SpeakerConfig config_;
    SpeakerEvents *events_;
    ObsHandles obs_;
    /** Read-side publication hook (see bindRibListener). */
    RibListener *ribListener_ = nullptr;
    uint64_t publishEveryDecisions_ = 0;
    /** counters_.decisionRuns at the last publication (or binding). */
    uint64_t publishedAtDecision_ = 0;
    bool ribDirty_ = false;
    /**
     * The one prefix -> slot key structure every RIB of this speaker
     * shares (see prefix_table.hh). Heap-allocated because every
     * column stores its address, which must survive moves of the
     * speaker. Declared before the RIBs so it outlives their
     * destruction.
     */
    std::unique_ptr<SharedPrefixTable> prefixTable_;
    /**
     * Every configured peer, sorted by peer id, the order of every
     * walk; the per-prefix ones skip peers whose session is not
     * Established. Held by pointer so a Peer stays put as it grows.
     */
    std::vector<std::unique_ptr<Peer>> peers_;
    /**
     * Per-flush encode cache: the UPDATEs encoded this flushPending()
     * round, indexed by content hash. Lives across the peer loop of
     * one flush (that is where fan-out duplication arises) and is
     * emptied at the end so segments are not retained once queued.
     */
    std::vector<CachedWire> encodeCache_;
    net::FlatIndex<uint32_t> encodeIndex_;
    /** One peer's built UPDATEs; reused by every flush. */
    std::vector<UpdateMessage> outbound_;
    /** runDecision()'s candidate list; reused by every decision. */
    std::vector<Candidate> candidates_;
    /** Decision runs not yet folded, by candidate count: entry n
     *  counts the runs with n candidates. */
    std::vector<uint64_t> candidateRuns_;
    /** runDecision()'s route group: indexes into candidates_, best
     *  first (selectMultipath). */
    std::vector<size_t> group_;
    /** runDecision()'s next-hop lists (LocRib::Entry::nextHops) of
     *  the prefix's route before and after the install. */
    std::vector<net::Ipv4Address> previousHops_;
    std::vector<net::Ipv4Address> hops_;
    /**
     * ebgpExport()'s memo: interned input attributes -> their eBGP
     * export. Keyed by the owning shared pointer, so a dead attribute
     * set can never alias a recycled address. Emptied wholesale at
     * exportMemoCap entries, which bounds how many dead attribute
     * sets long churn can keep alive; a full-feed load stays far
     * below it. Mutable: a cache of a pure function, which a read of
     * an AdjRibOutView may fill too.
     */
    mutable std::unordered_map<PathAttributesPtr, PathAttributesPtr>
        exportMemo_;
    static constexpr size_t exportMemoCap = 65536;
    /** Locally originated routes (pseudo Adj-RIB-In). */
    AdjRibIn localRoutes_;
    FlapDamper damper_;
    LocRib locRib_;
    SpeakerCounters counters_;
    /**
     * Time of the earliest wakeup currently armed with the owner, or
     * 0 when none is outstanding. serviceWakeup() clears it; the
     * owner may deliver wakeups late or more than once, both benign.
     */
    TimeNs wakeupArmedAt_ = 0;
};

/**
 * A peer's Adj-RIB-Out, derived: export(peer, best) of every Loc-RIB
 * route, computed on each read (size() and forEach() walk the
 * Loc-RIB). Reading it counts no route-map evaluation. It may fill
 * the eBGP export memo, which changes no later UPDATE: the memo only
 * caches a pure function of interned attributes.
 */
class BgpSpeaker::AdjRibOutView
{
  public:
    size_t
    size() const
    {
        size_t n = 0;
        forEach([&n](const net::Prefix &, const PathAttributesPtr &) { ++n; });
        return n;
    }

    /** The attributes the peer holds for @p prefix, or null. */
    PathAttributesPtr find(const net::Prefix &prefix) const;

    /** fn(prefix, attributes) per route, in ascending prefix order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (!peer_)
            return;
        speaker_->locRib_.forEach(
            [&](const net::Prefix &prefix, const LocRib::Entry &entry) {
                PathAttributesPtr ebgp;
                if (PathAttributesPtr attrs = speaker_->exportTo(
                        *peer_, prefix, entry.best, ebgp, nullptr))
                    fn(prefix, attrs);
            });
    }

  private:
    friend class BgpSpeaker;

    /** @p peer is null while its session is not Established. */
    AdjRibOutView(const BgpSpeaker &speaker, const Peer *peer)
        : speaker_(&speaker), peer_(peer)
    {}

    const BgpSpeaker *speaker_;
    const Peer *peer_;
};

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_SPEAKER_HH
