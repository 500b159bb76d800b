/**
 * @file
 * TopologySim: N full BgpSpeaker instances wired into a Topology on
 * top of the deterministic discrete-event simulator, stepped as
 * shards in conservative windows.
 *
 * Each node owns a real BgpSpeaker; its SpeakerEvents::onTransmit is
 * bridged into simulated link delivery: a transmitted wire segment
 * (shared and immutable — one encoding fans out to every peer and
 * link without copies) is serialised onto the link (bytes /
 * bandwidth), propagates for the link latency, and is then charged
 * against the receiving router's SystemProfile cost model (message
 * parse + per-byte + per-prefix decision cycles at that node's clock
 * rate, plus the commercial router's per-message gate) before
 * receiveSegment() runs. Per-link
 * FIFO ordering models TCP; a per-node "CPU busy until" scalar
 * serialises control-plane processing the way a single control CPU
 * would.
 *
 * Faults are scheduled into the same event queue: link down/up,
 * session reset, and whole-router restart. A link carries an epoch
 * counter; segments in flight across a down or reset are dropped,
 * exactly as a TCP connection teardown loses unacknowledged data.
 *
 * ## Execution (config.jobs)
 *
 * The topology's routers are partitioned into shards (greedy BFS
 * portfolio, see partition.hh; one shard at jobs = 1) and every run,
 * at every jobs value, drains the shards' own event queues in the
 * same loop of conservative windows. A window ends at the causality
 * bound: the minimum over busy shards s of (next event of s +
 * smallest cut-link latency incident to s), clamped to the run's
 * limit. No message transmitted inside the window can reach another
 * shard before that bound, and both of its inputs are virtual-time
 * quantities, so the window sequence replays identically run to run.
 * A one-shard run has no cut link to bound its window, so it drains
 * everything up to the limit in one window. At the window barrier
 * the shards' outbound batch buffers are exchanged and the next
 * window is derived from the globally earliest pending event. The
 * calling thread is worker 0 and jobs - 1 threads join it (none at
 * jobs = 1). Two throughput mechanisms sit on top of that
 * conservative core:
 *
 *  - Batched cross-shard delivery. Transmits append to per-cut-link
 *    elastic batch buffers (one per direction, owned by the source
 *    shard; capacity retained across windows) instead of a flat
 *    per-destination outbox; the barrier merges the per-link batches
 *    — each already (time, key)-sorted except across rare mid-window
 *    link flaps — per destination instead of re-sorting everything.
 *  - Intra-window work-stealing. The engine over-decomposes
 *    (shards ~ 2x workers) and the barrier refills per-worker deques
 *    with the shards that have events in the window; workers pop
 *    their own deque from the front and steal from the back of
 *    others' when idle. Exactly one worker drains a given shard per
 *    window, so shard-local state stays single-writer and the event
 *    order per shard is untouched — which worker ran it is invisible
 *    to the simulation.
 *
 * Determinism is the cardinal constraint: for a fixed topology and
 * schedule, runs at ANY shard count produce reports byte-identical
 * to the one-shard run (jobs = 1). Three mechanisms enforce it:
 *
 *  1. Total message order. Every message event (arrival, delivery)
 *     carries the explicit queue ordering key
 *     (source node id, per-source transmit sequence), so ties at
 *     equal simulated times resolve identically no matter which
 *     shard scheduled the event or when it crossed a mailbox —
 *     never by thread arrival order.
 *  2. Mirrored fault events. Link state (up flag, epoch) is
 *     replicated per shard; a fault on a cross-shard link is
 *     scheduled into every owning shard, each applying the local
 *     half at the same simulated time, so both replicas evolve in
 *     lock-step without runtime cross-shard communication.
 *  3. Order-independent metrics. Per-shard ConvergenceTrackers are
 *     folded into the main tracker with sums / maxima / set unions
 *     only.
 */

#ifndef BGPBENCH_TOPO_TOPOLOGY_SIM_HH
#define BGPBENCH_TOPO_TOPOLOGY_SIM_HH

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "bgp/speaker.hh"
#include "obs/observability.hh"
#include "sim/event_queue.hh"
#include "stats/report.hh"
#include "topo/convergence.hh"
#include "topo/partition.hh"
#include "topo/steal_deque.hh"
#include "topo/topology.hh"

namespace bgpbench::topo
{

/** Runtime knobs of a topology simulation. */
struct TopologySimConfig
{
    /**
     * Worker threads: 1 (default) runs one shard on the calling
     * thread, N > 1 shards the topology for the calling thread plus
     * N - 1 more, 0 resolves to the hardware concurrency. Every value
     * runs the same window loop. N sets the shard count; the pool
     * never starts more threads than the hardware has. Reports are
     * byte-identical for every value.
     */
    size_t jobs = 1;
    /**
     * maximum-paths applied to every speaker's decision process
     * (DecisionConfig::maxPaths). 1 keeps the classic single best
     * path; reports stay byte-identical across jobs either way.
     */
    size_t maxPaths = 1;
    /**
     * Route flap damping applied to every speaker (RFC 2439).
     * Disabled by default — the paper's scenarios run undamped.
     * Suppression and reuse evolve purely in virtual time (the
     * damper's anchor-based decay plus wakeup events scheduled on
     * the owning shard), so reports stay byte-identical across jobs.
     */
    bgp::DampingConfig damping;
    /**
     * Per-session MRAI for every speaker in ns of virtual time
     * (SpeakerConfig::mraiNs); 0 (the paper default) disables
     * batching. Deferred flushes are serviced by wakeup events on
     * the owning shard, keeping reports byte-identical across jobs.
     */
    sim::SimTime mraiNs = 0;
    /**
     * Observability sinks for the run, or null (detached — the
     * default). When set, every speaker is bound to its shard's
     * metric registry and tracer, engine windows and barrier waits
     * are recorded, and each runToConvergence() folds the per-shard
     * registries/trace buffers into these sinks (in shard order, via
     * order-independent merges). Trace timestamps are virtual, so
     * attaching sinks cannot change simulation behaviour or report
     * bytes. Must outlive the TopologySim.
     */
    obs::RunObservability *obs = nullptr;
};

/**
 * Owns the simulator shards, the speakers, and the link plumbing for
 * one topology, and scripts scenarios against them.
 *
 * Peer-id convention: on every node, the peer id of a session equals
 * the global index of the link carrying it. Link indexes are unique
 * per topology and each link touches a node at most once, so the ids
 * never collide.
 */
class TopologySim
{
  public:
    explicit TopologySim(Topology topology,
                         TopologySimConfig config = {});
    ~TopologySim();

    TopologySim(const TopologySim &) = delete;
    TopologySim &operator=(const TopologySim &) = delete;

    const Topology &topology() const { return topo_; }
    /** Latest simulated time reached by any shard. */
    sim::SimTime now() const;
    /** Events waiting across all shards. */
    size_t pendingEvents() const;
    /**
     * Worker threads the engine resolved to: jobs, capped at the
     * shard count and the hardware concurrency. The shard count may
     * exceed this (over-decomposition feeds the work-stealing
     * deques); partition().shardCount has the shards.
     */
    size_t jobs() const { return workers_; }
    /** The node partition driving the sharded execution. */
    const Partition &partition() const { return partition_; }
    bgp::BgpSpeaker &speaker(size_t node);
    const bgp::BgpSpeaker &speaker(size_t node) const;
    ConvergenceTracker &tracker() { return tracker_; }
    const ConvergenceTracker &tracker() const { return tracker_; }

    /** @name Scenario scripting
     *  All schedule work at absolute simulated time @p at (>= now).
     *  @{
     */
    /** Originate @p prefix at @p node (NEXT_HOP = node address). */
    void originate(size_t node, const net::Prefix &prefix,
                   sim::SimTime at);
    /** Withdraw a locally originated prefix. */
    void withdrawLocal(size_t node, const net::Prefix &prefix,
                       sim::SimTime at);
    /** Take a link down: sessions drop, in-flight segments are lost. */
    void scheduleLinkDown(size_t link, sim::SimTime at);
    /** Bring a downed link back; sessions re-establish. */
    void scheduleLinkUp(size_t link, sim::SimTime at);
    /** Reset the session on @p link; reconnects after
     *  reconnectDelayNs. */
    void scheduleSessionReset(size_t link, sim::SimTime at);
    /**
     * Restart a router: every incident session drops at @p at and
     * re-establishes at @p at + @p downtime. Locally originated
     * routes survive (they are configuration); learned routes are
     * re-learned from the full-table exchange on reconnect.
     */
    void scheduleRouterRestart(size_t node, sim::SimTime at,
                               sim::SimTime downtime);
    /** @} */

    /**
     * Run until the event queues are quiescent (converged) or the
     * clock would pass @p limit.
     *
     * @return True if the network converged within the limit.
     */
    bool runToConvergence(sim::SimTime limit);

    /**
     * Semantic convergence check: every originated prefix is present
     * in the Loc-RIB of every router reachable from its origin over
     * currently-up links.
     */
    bool locRibsConsistent() const;

    bool linkUp(size_t link) const;

    /** Locally originated (node, prefix) pairs, in origination order. */
    const std::vector<std::pair<size_t, net::Prefix>> &
    originated() const
    {
        return originated_;
    }

    /** Build the convergence report for the current tracker phase. */
    ConvergenceReport report(const std::string &scenario,
                             const std::string &shape) const;

    /**
     * Publish the shard layout and utilization counters of the runs
     * so far under the "parallel.*" metric names (obs::metric, one
     * gauge/counter per field plus per-shard entries; rendered by
     * obs::printParallelView), plus the sync-layer "topo.*" counters:
     * topo.window_len_ns (deterministic, virtual-time), and the
     * host-side diagnostics topo.barrier_wait_ns / topo.steal_count
     * (nondeterministic by nature — they must never feed anything
     * whose bytes are compared across runs). Jobs-dependent, hence
     * NOT part of the convergence report (whose bytes must not
     * depend on the jobs knob). Counters accumulate, so publish once
     * per report into a given registry.
     */
    void publishParallelMetrics(obs::MetricRegistry &registry) const;

  private:
    /** Delay before a reset session reconnects. */
    static constexpr sim::SimTime reconnectDelayNs = sim::nsFromMs(10);

    struct NodeEvents;

    struct LinkState
    {
        bool up = true;
        /** Bumped on down/reset; stale segments are dropped. */
        uint64_t epoch = 0;
        /** Per-direction serialisation cursor (a->b, b->a). */
        sim::SimTime busyUntil[2] = {0, 0};
    };

    /**
     * An inter-shard message: a segment transmitted by a node of one
     * shard toward a node of another, carrying everything the
     * destination needs to schedule the arrival locally.
     */
    struct CrossMessage
    {
        /** Simulated arrival time at the destination node. */
        sim::SimTime time;
        /** (source node, per-source sequence) total-order key. */
        uint64_t key;
        uint32_t link;
        /** Source-side link epoch at transmit time. */
        uint64_t epoch;
        uint32_t dst;
        bgp::MessageType type;
        uint32_t transactions;
        /**
         * Shared immutable segment. Crossing the mailbox moves only
         * the reference; the bytes were encoded exactly once in the
         * source speaker. The refcount is atomic, so the destination
         * shard can release its reference on its own thread.
         */
        net::WireSegmentPtr wire;
    };

    /**
     * Elastic outbound batch buffer for one outgoing direction of
     * one cut link. The worker running the source shard appends
     * during its window; the window barrier's completion step drains
     * every buffer (the barrier provides the happens-before edges,
     * so no locks or atomics). clear() keeps the capacity, so steady
     * state appends without allocating. A single source node feeds
     * each buffer, so its contents are (time, key)-sorted by
     * construction except across a mid-window link flap (the
     * serialisation cursor resets); the drain re-sorts only then.
     */
    struct LinkBatch
    {
        uint32_t dstShard = 0;
        std::vector<CrossMessage> messages;
    };

    /** Locates one inbound LinkBatch of a destination shard. */
    struct BatchRef
    {
        uint32_t srcShard;
        uint32_t slot;
    };

    /**
     * One slice of the simulation: its own event queue, metric
     * tracker, link-state replica, and outbound batch buffers. With
     * work-stealing any worker may drain a shard's window, but only
     * one per window, so everything here stays single-writer between
     * barriers.
     */
    struct Shard
    {
        size_t index = 0;
        sim::Simulator sim;
        ConvergenceTracker tracker;
        /**
         * Link-state replica. Authoritative only for links with an
         * endpoint in this shard; fault events are mirrored into
         * every owning shard so replicas agree at every simulated
         * instant.
         */
        std::vector<LinkState> links;
        /** One outbound batch per outgoing cut-link direction. */
        std::vector<LinkBatch> outBatches;
        /** link index -> outBatches slot (UINT32_MAX: not ours). */
        std::vector<uint32_t> outSlotOfLink;
        /** Host nanoseconds spent executing events. */
        uint64_t hostBusyNs = 0;
        /** First exception thrown inside a window, if any. */
        std::exception_ptr error;
        /**
         * Shard-local observability: the shard's speakers and the
         * worker loop record here without synchronisation; the
         * contents are folded into the run sinks after each
         * runToConvergence(). The tracer stays detached when the
         * config carries no sinks.
         */
        obs::MetricRegistry metrics;
        obs::TraceBuffer traceBuf;
        obs::Tracer tracer;
    };

    size_t shardOfNode(size_t node) const
    {
        return partition_.shardOf[node];
    }
    Shard &shardFor(size_t node) { return *shards_[shardOfNode(node)]; }
    /** Owning shards of @p link (one entry when both ends share it). */
    void ownerShards(size_t link, size_t out[2], size_t &count) const;
    /** Whether @p shard owns an endpoint of @p link. */
    bool shardOwnsLink(const Shard &shard, size_t link) const;
    /** Schedule @p handler into every owning shard of @p link. */
    template <typename Fn>
    void scheduleMirrored(size_t link, sim::SimTime at, Fn &&handler);

    /** Next (src node, sequence) message-ordering key for @p node. */
    uint64_t nextMessageKey(size_t node);

    /** Bring the shard-local ends of @p link up (OPEN exchange). */
    void establishLocal(Shard &shard, size_t link);
    /** Drop the shard-local ends and invalidate in-flight segments. */
    void closeLocal(Shard &shard, size_t link);
    /** SpeakerEvents::onTransmit bridge; runs in the node's shard. */
    void transmitFrom(size_t node, bgp::PeerId peer,
                      bgp::MessageType type, net::WireSegmentPtr wire,
                      size_t transactions);
    /**
     * SpeakerEvents::onWakeupRequested bridge: schedule a
     * serviceWakeup() for @p node at @p at (clamped to the shard's
     * now). Node-local — the event lands on the owning shard only, so
     * it is identical under every shard layout.
     */
    void scheduleWakeup(Shard &shard, size_t node, sim::SimTime at);
    /** Schedule a (possibly batch-delivered) arrival in @p shard. */
    void scheduleArrival(Shard &shard, CrossMessage msg);
    /** Segment reached the far end; queue CPU processing. */
    void arrive(size_t link, uint64_t epoch, uint64_t key, size_t dst,
                net::WireSegmentPtr wire, bgp::MessageType type,
                size_t transactions);
    /** CPU processing done; deliver to the speaker. */
    void deliver(size_t link, uint64_t epoch, size_t dst,
                 const net::WireSegmentPtr &wire);

    /**
     * The window loop: barrier-stepped windows up to @p limit on the
     * calling thread (worker 0) plus workers_ - 1 threads.
     */
    bool runWindows(sim::SimTime limit);
    /**
     * Drain all batch buffers, pick the next window, and refill the
     * work-stealing deques (barrier completion step — runs
     * exclusively).
     */
    void exchangeAndOpenWindow(sim::SimTime limit);
    /** Drain one destination's inbound batches into its queue. */
    void mergeInbound(size_t dst);
    /** Pop worker @p worker's next shard task (own deque or steal). */
    bool nextTask(size_t worker, uint32_t &task);
    /** Drain @p shard below windowEnd_ on the calling worker. */
    void runShardWindow(Shard &shard,
                        std::atomic<bool> &failed) noexcept;
    /** Fold the per-shard trackers into tracker_ (post-run). */
    void absorbShardTrackers();

    Topology topo_;
    TopologySimConfig config_;
    Partition partition_;
    /** Worker threads of the window loop, the calling one included. */
    size_t workers_ = 1;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::unique_ptr<NodeEvents>> events_;
    std::vector<std::unique_ptr<bgp::BgpSpeaker>> speakers_;
    /** Control CPU availability per node (single control thread). */
    std::vector<sim::SimTime> cpuFreeAt_;
    /** Per-node transmit sequence feeding nextMessageKey(). */
    std::vector<uint64_t> messageSeq_;
    std::vector<std::pair<size_t, net::Prefix>> originated_;
    ConvergenceTracker tracker_;
    /** Inbound batch locations per destination shard. */
    std::vector<std::vector<BatchRef>> inBatches_;
    /** Per-worker shard-task deques, refilled each window. */
    std::vector<std::unique_ptr<StealDeque>> workerDeques_;
    /** Barrier/window state of the run in progress. */
    sim::SimTime windowEnd_ = 0;
    bool runDone_ = false;
    bool runConverged_ = false;
    uint64_t windows_ = 0;
    /** Sum of opened window lengths (virtual ns, deterministic). */
    uint64_t windowLenSumNs_ = 0;
    /** Shard tasks taken from another worker's deque (diagnostic). */
    std::atomic<uint64_t> stealCount_{0};
    /** Host ns each worker spent blocked on the barrier (diagnostic,
     *  published only when obs sinks are attached). */
    std::vector<uint64_t> workerBarrierWaitNs_;
    /** Scratch for merging one destination's inbound batches. */
    std::vector<CrossMessage> inboxScratch_;
    std::vector<size_t> mergeBounds_;
    std::vector<size_t> mergeBoundsScratch_;
    /** Engine-lane sink for "sync_window" spans (virtual time). */
    obs::TraceBuffer engineTraceBuf_;
    obs::Tracer engineTracer_;
};

} // namespace bgpbench::topo

#endif // BGPBENCH_TOPO_TOPOLOGY_SIM_HH
