#include "topo/topology_sim.hh"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <iostream>
#include <thread>

#include "net/logging.hh"
#include "obs/views.hh"

namespace bgpbench::topo
{

namespace
{

uint64_t
hostNanosSince(std::chrono::steady_clock::time_point begin)
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - begin)
                        .count());
}

/**
 * @p receiver's Adj-RIB-In from @p peer equals @p sender's Adj-RIB-Out
 * toward it passed through @p import, the receiver's import policy:
 * the same prefixes, value-equal attributes, and null where the policy
 * rejected the route. Both walk in ascending prefix order.
 */
bool
adjacencyAgrees(const bgp::BgpSpeaker &sender,
                const bgp::BgpSpeaker &receiver, bgp::PeerId peer,
                const bgp::Policy &import)
{
    std::vector<std::pair<net::Prefix, bgp::PathAttributesPtr>> sent;
    sender.adjRibOut(peer).forEach(
        [&](const net::Prefix &prefix, const bgp::PathAttributesPtr &attrs) {
            sent.emplace_back(prefix, import.apply(prefix, attrs));
        });
    const bgp::AdjRibIn &held = receiver.adjRibIn(peer);
    if (held.size() != sent.size())
        return false;
    size_t i = 0;
    bool same = true;
    held.forEach([&](const net::Prefix &prefix,
                     const bgp::PathAttributesPtr &attrs) {
        same = same && sent[i].first == prefix &&
               bgp::sameAttributeValue(sent[i].second, attrs);
        ++i;
    });
    return same;
}

} // namespace

/** SpeakerEvents adapter attributing callbacks to one node. */
struct TopologySim::NodeEvents : public bgp::SpeakerEvents
{
    TopologySim *sim = nullptr;
    /** The shard owning the node; all callbacks run on its worker. */
    Shard *shard = nullptr;
    size_t node = 0;

    void
    onTransmit(bgp::PeerId to, bgp::MessageType type,
               net::WireSegmentPtr wire, size_t transactions) override
    {
        sim->transmitFrom(node, to, type, std::move(wire),
                          transactions);
    }

    void
    onUpdateReceived(bgp::PeerId from,
                     const bgp::UpdateMessage &msg) override
    {
        (void)from;
        shard->tracker.onUpdateDelivered(node, msg, shard->sim.now());
    }

    void
    onSessionStateChange(bgp::PeerId peer, bgp::SessionState previous,
                         bgp::SessionState current) override
    {
        (void)peer;
        (void)previous;
        (void)current;
        shard->tracker.onSessionChange(node, shard->sim.now());
    }

    void
    onWakeupRequested(bgp::SessionFsm::TimeNs at) override
    {
        sim->scheduleWakeup(*shard, node, at);
    }
};

TopologySim::TopologySim(Topology topology, TopologySimConfig config)
    : topo_(std::move(topology)), config_(config)
{
    if (topo_.nodeCount() == 0)
        fatal("topology simulation needs at least one node");

    size_t hardware =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    size_t jobs = config_.jobs == 0 ? hardware : config_.jobs;
    // Over-decomposition: about two shards per worker feeds the
    // work-stealing deques, so a shard hitting a quiet window doesn't
    // idle its worker.
    partition_ =
        partitionTopology(topo_, shardTarget(topo_.nodeCount(), jobs));
    if (partition_.shardCount > 1 && partition_.cutLinks > 0 &&
        partition_.minCutLatencyNs == 0) {
        // A zero-latency cut link leaves no conservative lookahead at
        // all: every window would be empty. Degrade loudly, not
        // silently wrong.
        std::cerr << "warning: a cross-shard link has zero latency, "
                     "leaving no conservative lookahead; running on "
                     "one shard\n";
        partition_ = partitionTopology(topo_, 1);
    }
    if (partition_.nodeSkew > 0.25) {
        stats::printImbalanceWarning(std::cerr, partition_.shardCount,
                                     partition_.nodeSkew);
    }
    // The shard count follows jobs alone, so a run partitions the
    // same way on every host; workers beyond the hardware threads
    // would only wait on the barrier.
    workers_ = std::min({jobs, partition_.shardCount, hardware});

    shards_.reserve(partition_.shardCount);
    for (size_t s = 0; s < partition_.shardCount; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->index = s;
        shard->links.resize(topo_.linkCount());
        if (config_.obs)
            shard->tracer.attach(&shard->traceBuf);
        shards_.push_back(std::move(shard));
    }
    for (size_t w = 0; w < workers_; ++w)
        workerDeques_.push_back(std::make_unique<StealDeque>());
    workerBarrierWaitNs_.assign(workers_, 0);
    if (config_.obs)
        engineTracer_.attach(&engineTraceBuf_);

    cpuFreeAt_.assign(topo_.nodeCount(), 0);
    messageSeq_.assign(topo_.nodeCount(), 0);

    for (size_t i = 0; i < topo_.nodeCount(); ++i) {
        const NodeConfig &node = topo_.node(i);
        auto events = std::make_unique<NodeEvents>();
        events->sim = this;
        events->shard = shards_[shardOfNode(i)].get();
        events->node = i;

        bgp::SpeakerConfig speaker_config;
        speaker_config.localAs = node.asn;
        speaker_config.routerId = node.routerId;
        speaker_config.localAddress = node.address;
        speaker_config.maxPaths = config_.maxPaths;
        speaker_config.damping = config_.damping;
        speaker_config.mraiNs = uint64_t(config_.mraiNs);
        auto speaker = std::make_unique<bgp::BgpSpeaker>(
            speaker_config, events.get());
        if (config_.obs) {
            // Shard-local sinks: several speakers share their
            // shard's registry (counts aggregate per shard, then
            // across shards at absorb time); the trace lane is the
            // global node id, which is sharding-invariant.
            speaker->bindObservability(&events->shard->metrics,
                                       &events->shard->tracer,
                                       uint32_t(i));
        }

        events_.push_back(std::move(events));
        speakers_.push_back(std::move(speaker));
    }

    for (size_t l = 0; l < topo_.linkCount(); ++l) {
        const Link &link = topo_.link(l);
        auto add_peer = [&](const LinkEnd &self,
                            const LinkEnd &other) {
            bgp::PeerConfig peer;
            peer.id = bgp::PeerId(l);
            peer.asn = topo_.node(other.node).asn;
            peer.address = topo_.node(other.node).address;
            peer.importPolicy = self.importPolicy;
            peer.exportPolicy = self.exportPolicy;
            speakers_[self.node]->addPeer(std::move(peer));
        };
        add_peer(link.a, link.b);
        add_peer(link.b, link.a);
    }

    // Every link's session comes up at t = 0.
    for (size_t l = 0; l < topo_.linkCount(); ++l) {
        scheduleMirrored(l, 0, [this, l](Shard &shard) {
            establishLocal(shard, l);
        });
    }
}

TopologySim::~TopologySim() = default;

sim::SimTime
TopologySim::now() const
{
    sim::SimTime latest = 0;
    for (const auto &shard : shards_)
        latest = std::max(latest, shard->sim.now());
    return latest;
}

size_t
TopologySim::pendingEvents() const
{
    size_t pending = 0;
    for (const auto &shard : shards_)
        pending += shard->sim.pendingEvents();
    return pending;
}

bgp::BgpSpeaker &
TopologySim::speaker(size_t node)
{
    if (node >= speakers_.size())
        fatal("unknown node index " + std::to_string(node));
    return *speakers_[node];
}

const bgp::BgpSpeaker &
TopologySim::speaker(size_t node) const
{
    if (node >= speakers_.size())
        fatal("unknown node index " + std::to_string(node));
    return *speakers_[node];
}

bool
TopologySim::linkUp(size_t link) const
{
    if (link >= topo_.linkCount())
        fatal("unknown link index " + std::to_string(link));
    // Either owning replica works: fault mirroring keeps them equal
    // at every simulated instant.
    size_t owner = partition_.shardOf[topo_.link(link).a.node];
    return shards_[owner]->links[link].up;
}

void
TopologySim::ownerShards(size_t link, size_t out[2],
                         size_t &count) const
{
    const Link &l = topo_.link(link);
    out[0] = partition_.shardOf[l.a.node];
    count = 1;
    size_t other = partition_.shardOf[l.b.node];
    if (other != out[0])
        out[count++] = other;
}

bool
TopologySim::shardOwnsLink(const Shard &shard, size_t link) const
{
    const Link &l = topo_.link(link);
    return partition_.shardOf[l.a.node] == shard.index ||
           partition_.shardOf[l.b.node] == shard.index;
}

template <typename Fn>
void
TopologySim::scheduleMirrored(size_t link, sim::SimTime at,
                              Fn &&handler)
{
    size_t owners[2];
    size_t count = 0;
    ownerShards(link, owners, count);
    for (size_t i = 0; i < count; ++i) {
        Shard *shard = shards_[owners[i]].get();
        shard->sim.schedule(at,
                            [handler, shard]() { handler(*shard); });
    }
}

uint64_t
TopologySim::nextMessageKey(size_t node)
{
    // (source node + 1) in the high bits, the per-source transmit
    // sequence in the low 44: never zero (zero is the rank of
    // scenario/fault events), strictly increasing per source, and
    // independent of which shard layout scheduled the transmit.
    return (uint64_t(node) + 1) << 44 | ++messageSeq_[node];
}

void
TopologySim::establishLocal(Shard &shard, size_t l)
{
    if (!shard.links[l].up)
        return;
    const Link &link = topo_.link(l);
    sim::SimTime now = shard.sim.now();
    for (size_t node : {link.a.node, link.b.node}) {
        if (shardOfNode(node) != shard.index)
            continue;
        speakers_[node]->startPeer(bgp::PeerId(l), now);
        speakers_[node]->tcpEstablished(bgp::PeerId(l), now);
    }
}

void
TopologySim::closeLocal(Shard &shard, size_t l)
{
    ++shard.links[l].epoch;
    const Link &link = topo_.link(l);
    sim::SimTime now = shard.sim.now();
    for (size_t node : {link.a.node, link.b.node}) {
        if (shardOfNode(node) != shard.index)
            continue;
        speakers_[node]->tcpClosed(bgp::PeerId(l), now);
    }
}

void
TopologySim::scheduleWakeup(Shard &shard, size_t node, sim::SimTime at)
{
    // Key 0 ranks the wakeup with the other scenario-level events.
    // The event only touches its own speaker (and transmits through
    // the keyed message path), so same-instant wakeups of different
    // nodes commute and the schedule is layout-independent.
    sim::SimTime when = std::max(at, shard.sim.now());
    shard.sim.schedule(when, [this, &shard, node]() {
        speakers_[node]->serviceWakeup(shard.sim.now());
    });
}

void
TopologySim::transmitFrom(size_t node, bgp::PeerId peer,
                          bgp::MessageType type,
                          net::WireSegmentPtr wire,
                          size_t transactions)
{
    size_t l = peer;
    if (l >= topo_.linkCount())
        panic("transmit on unknown link");
    Shard &shard = shardFor(node);
    LinkState &state = shard.links[l];
    if (!state.up) {
        shard.tracker.onSegmentDropped();
        return;
    }

    const Link &link = topo_.link(l);
    size_t dir = node == link.a.node ? 0 : 1;
    size_t dst = dir == 0 ? link.b.node : link.a.node;

    // Serialise onto the link, then propagate. The per-direction
    // cursor keeps deliveries FIFO (TCP ordering) and models the
    // link as busy while a segment is on the wire. Only the source
    // node's shard ever reads or writes its direction's cursor.
    sim::SimTime ser_ns = 0;
    if (link.bandwidthMbps > 0) {
        ser_ns = sim::SimTime(double(wire->size()) * 8.0 * 1000.0 /
                              link.bandwidthMbps);
    }
    sim::SimTime start = std::max(shard.sim.now(), state.busyUntil[dir]);
    state.busyUntil[dir] = start + ser_ns;

    CrossMessage msg;
    msg.time = start + ser_ns + link.latencyNs;
    msg.key = nextMessageKey(node);
    msg.link = uint32_t(l);
    msg.epoch = state.epoch;
    msg.dst = uint32_t(dst);
    msg.type = type;
    msg.transactions = uint32_t(transactions);
    msg.wire = std::move(wire);

    size_t dst_shard = shardOfNode(dst);
    if (dst_shard == shard.index) {
        scheduleArrival(shard, std::move(msg));
    } else {
        // Cross-shard: append to the shard's outbox, delivered at the
        // next window barrier. Window safety: msg.time >= now + link
        // latency >= window start + the smallest cut latency incident
        // to this shard, which is what bounds the window end.
        shard.outbox.push_back(std::move(msg));
    }
}

void
TopologySim::scheduleArrival(Shard &shard, CrossMessage msg)
{
    shard.sim.schedule(
        msg.time, msg.key,
        [this, l = size_t(msg.link), epoch = msg.epoch, key = msg.key,
         dst = size_t(msg.dst), type = msg.type,
         transactions = size_t(msg.transactions),
         wire = std::move(msg.wire)]() mutable {
            arrive(l, epoch, key, dst, std::move(wire), type,
                   transactions);
        });
}

void
TopologySim::arrive(size_t l, uint64_t epoch, uint64_t key, size_t dst,
                    net::WireSegmentPtr wire, bgp::MessageType type,
                    size_t transactions)
{
    Shard &shard = shardFor(dst);
    LinkState &state = shard.links[l];
    if (!state.up || state.epoch != epoch) {
        shard.tracker.onSegmentDropped();
        return;
    }

    // Charge the receiving router's cost model: parse cycles plus
    // the per-prefix decision work the UPDATE will trigger, at this
    // node's clock rate, serialised on its single control CPU. The
    // announce cost approximates both announce and withdraw work.
    const router::SystemProfile &profile = topo_.node(dst).profile;
    double cycles = profile.costs.msgParse +
                    profile.costs.msgPerByte * double(wire->size());
    if (type == bgp::MessageType::Update)
        cycles += profile.costs.announcePrefix * double(transactions);
    sim::SimTime cost_ns =
        sim::SimTime(cycles / profile.cpu.cyclesPerSecond * 1e9) +
        profile.costs.msgGateNs;
    sim::SimTime begin = std::max(shard.sim.now(), cpuFreeAt_[dst]);
    sim::SimTime done = begin + cost_ns;
    cpuFreeAt_[dst] = done;

    // The delivery keeps the message's ordering key, so deliveries
    // collapsing onto the same CPU-done instant still run in source
    // order on every shard layout.
    shard.sim.schedule(done, key,
                       [this, l, epoch, dst, wire = std::move(wire)]() {
                           deliver(l, epoch, dst, wire);
                       });
}

void
TopologySim::deliver(size_t l, uint64_t epoch, size_t dst,
                     const net::WireSegmentPtr &wire)
{
    Shard &shard = shardFor(dst);
    LinkState &state = shard.links[l];
    if (!state.up || state.epoch != epoch) {
        shard.tracker.onSegmentDropped();
        return;
    }

    // The speaker's onUpdateReceived() feeds the tracker from this
    // call's decode.
    speakers_[dst]->receiveSegment(bgp::PeerId(l), wire,
                                   shard.sim.now());
}

void
TopologySim::originate(size_t node, const net::Prefix &prefix,
                       sim::SimTime at)
{
    if (node >= speakers_.size())
        fatal("unknown node index " + std::to_string(node));
    originated_.emplace_back(node, prefix);
    net::Ipv4Address next_hop = topo_.node(node).address;
    Shard *shard = &shardFor(node);
    shard->sim.schedule(at, [this, shard, node, prefix, next_hop]() {
        bgp::PathAttributes attrs;
        attrs.nextHop = next_hop;
        speakers_[node]->originate(
            prefix, bgp::makeAttributes(std::move(attrs)),
            shard->sim.now());
    });
}

void
TopologySim::withdrawLocal(size_t node, const net::Prefix &prefix,
                           sim::SimTime at)
{
    if (node >= speakers_.size())
        fatal("unknown node index " + std::to_string(node));
    // The origination list is bookkeeping for locRibsConsistent(),
    // which only runs between runs; updating it at scheduling time
    // (like originate() does) keeps run-time handlers free of state
    // shared across shards.
    auto it = std::find(originated_.begin(), originated_.end(),
                        std::make_pair(node, prefix));
    if (it != originated_.end())
        originated_.erase(it);
    Shard *shard = &shardFor(node);
    shard->sim.schedule(at, [this, shard, node, prefix]() {
        speakers_[node]->withdrawLocal(prefix, shard->sim.now());
    });
}

void
TopologySim::scheduleLinkDown(size_t link, sim::SimTime at)
{
    if (link >= topo_.linkCount())
        fatal("unknown link index " + std::to_string(link));
    scheduleMirrored(link, at, [this, link](Shard &shard) {
        if (!shard.links[link].up)
            return;
        shard.links[link].up = false;
        closeLocal(shard, link);
    });
}

void
TopologySim::scheduleLinkUp(size_t link, sim::SimTime at)
{
    if (link >= topo_.linkCount())
        fatal("unknown link index " + std::to_string(link));
    scheduleMirrored(link, at, [this, link](Shard &shard) {
        if (shard.links[link].up)
            return;
        shard.links[link].up = true;
        shard.links[link].busyUntil[0] = shard.sim.now();
        shard.links[link].busyUntil[1] = shard.sim.now();
        establishLocal(shard, link);
    });
}

void
TopologySim::scheduleSessionReset(size_t link, sim::SimTime at)
{
    if (link >= topo_.linkCount())
        fatal("unknown link index " + std::to_string(link));
    scheduleMirrored(link, at, [this, link](Shard &shard) {
        if (!shard.links[link].up)
            return;
        closeLocal(shard, link);
        shard.sim.scheduleIn(reconnectDelayNs,
                             [this, link, sh = &shard]() {
                                 establishLocal(*sh, link);
                             });
    });
}

void
TopologySim::scheduleRouterRestart(size_t node, sim::SimTime at,
                                   sim::SimTime downtime)
{
    if (node >= speakers_.size())
        fatal("unknown node index " + std::to_string(node));

    // Every shard owning an incident link sees the restart (the
    // neighbours' sessions drop too); each applies only its local
    // half at the same simulated instants.
    std::vector<size_t> affected{shardOfNode(node)};
    for (const Topology::Adjacent &adj : topo_.neighborsOf(node)) {
        size_t other = shardOfNode(adj.node);
        if (std::find(affected.begin(), affected.end(), other) ==
            affected.end()) {
            affected.push_back(other);
        }
    }
    std::sort(affected.begin(), affected.end());

    for (size_t s : affected) {
        Shard *shard = shards_[s].get();
        shard->sim.schedule(at, [this, shard, node, downtime]() {
            for (const Topology::Adjacent &adj :
                 topo_.neighborsOf(node)) {
                if (!shardOwnsLink(*shard, adj.link))
                    continue;
                if (shard->links[adj.link].up)
                    closeLocal(*shard, adj.link);
            }
            if (shardOfNode(node) == shard->index)
                cpuFreeAt_[node] = shard->sim.now() + downtime;
            shard->sim.scheduleIn(downtime, [this, shard, node]() {
                for (const Topology::Adjacent &adj :
                     topo_.neighborsOf(node)) {
                    if (!shardOwnsLink(*shard, adj.link))
                        continue;
                    if (shard->links[adj.link].up)
                        establishLocal(*shard, adj.link);
                }
            });
        });
    }
}

void
TopologySim::exchangeAndOpenWindow(sim::SimTime limit)
{
    // Cross-shard messages carry unique keys, so their destination
    // queue runs them in (time, key) order whatever the push order.
    for (auto &shard : shards_) {
        for (CrossMessage &msg : shard->outbox)
            scheduleArrival(shardFor(msg.dst), std::move(msg));
        shard->outbox.clear();
    }

    sim::SimTime next = sim::simTimeNever;
    for (const auto &shard : shards_)
        next = std::min(next, shard->sim.nextEventTime());
    if (next == sim::simTimeNever) {
        runDone_ = true;
        runConverged_ = true;
        return;
    }
    if (next > limit) {
        runDone_ = true;
        runConverged_ = false;
        return;
    }

    // Open [next, end) with end at the causality bound: the earliest
    // instant any busy shard could make a message arrive in another
    // shard, i.e. its next event time plus the smallest cut-link
    // latency it touches. No message transmitted inside the window
    // can arrive before its end, and no window is shorter than the
    // smallest cut latency. A shard with no cut link bounds nothing,
    // so a one-shard run's single window reaches the limit.
    sim::SimTime bound = sim::simTimeNever;
    for (const auto &shard : shards_) {
        sim::SimTime shard_next = shard->sim.nextEventTime();
        sim::SimTime cut = partition_.shardMinCutLatencyNs[shard->index];
        if (shard_next == sim::simTimeNever || cut == sim::simTimeNever)
            continue;
        if (shard_next > sim::simTimeNever - cut)
            continue;
        bound = std::min(bound, shard_next + cut);
    }
    sim::SimTime end = bound;
    if (limit != sim::simTimeNever)
        end = std::min(end, limit + 1);
    windowEnd_ = end;
    ++windows_;
    // Only a causality-bounded window has a length: the limit alone
    // bounds an unbounded one, which says nothing about the sync.
    sim::SimTime length = bound == sim::simTimeNever ? 0 : end - next;
    windowLenSumNs_ += length;
    // The engine lane gets one span per window above the per-shard
    // lanes; virtual timestamps keep the trace deterministic.
    engineTracer_.complete("sync_window", "engine", obs::kTrackEngine,
                           uint32_t(shards_.size()), next,
                           next + length);

    // Refill the work deques with the shards that have work this
    // window, round-robin across workers. The deques are empty here
    // (workers drained them before arriving), and the barrier
    // completion step runs exclusively.
    size_t ready = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
        if (shards_[s]->sim.nextEventTime() < windowEnd_)
            workerDeques_[ready++ % workers_]->push(uint32_t(s));
    }
}

bool
TopologySim::nextTask(size_t worker, uint32_t &task)
{
    if (workerDeques_[worker]->popFront(task))
        return true;
    for (size_t off = 1; off < workers_; ++off) {
        size_t victim = (worker + off) % workers_;
        if (workerDeques_[victim]->popBack(task)) {
            stealCount_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
TopologySim::runShardWindow(Shard &shard,
                            std::atomic<bool> &failed) noexcept
{
    auto begin = std::chrono::steady_clock::now();
    sim::SimTime windowBegin = shard.sim.now();
    try {
        shard.sim.runBefore(windowEnd_);
    } catch (...) {
        shard.error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
    }
    shard.hostBusyNs += hostNanosSince(begin);
    shard.tracer.complete("window", "engine", obs::kTrackEngine,
                          uint32_t(shard.index), windowBegin,
                          shard.sim.now());
}

bool
TopologySim::runWindows(sim::SimTime limit)
{
    runDone_ = false;
    runConverged_ = false;
    exchangeAndOpenWindow(limit);
    if (runDone_)
        return runConverged_;

    std::atomic<bool> failed{false};
    auto completion = [this, limit, &failed]() noexcept {
        if (failed.load(std::memory_order_relaxed)) {
            runDone_ = true;
            runConverged_ = false;
            return;
        }
        exchangeAndOpenWindow(limit);
    };
    // The barrier is the only inter-shard synchronisation: its phase
    // completion publishes the emptied outboxes, the next
    // windowEnd_/runDone_ values, and the refilled deques to every
    // worker. Exactly one worker drains a given shard per window
    // (each shard id sits in exactly one deque and pops once), so
    // shard state stays single-writer between barriers no matter who
    // steals what.
    std::barrier barrier(std::ptrdiff_t(workers_),
                         std::move(completion));

    auto work = [this, &barrier, &failed](size_t w) {
        while (!runDone_) {
            uint32_t task = 0;
            while (nextTask(w, task))
                runShardWindow(*shards_[task], failed);
            auto waitBegin = std::chrono::steady_clock::now();
            barrier.arrive_and_wait();
            workerBarrierWaitNs_[w] += hostNanosSince(waitBegin);
        }
    };
    // The calling thread is worker 0, so a one-worker run starts no
    // thread at all.
    std::vector<std::thread> helpers;
    helpers.reserve(workers_ - 1);
    for (size_t w = 1; w < workers_; ++w)
        helpers.emplace_back(work, w);
    work(0);
    for (std::thread &helper : helpers)
        helper.join();

    for (auto &entry : shards_) {
        if (entry->error) {
            std::exception_ptr error = entry->error;
            entry->error = nullptr;
            std::rethrow_exception(error);
        }
    }
    return runConverged_;
}

void
TopologySim::absorbShardTrackers()
{
    for (auto &shard : shards_) {
        tracker_.absorb(shard->tracker);
        if (config_.obs) {
            // Fixed shard order plus order-independent merges keep
            // the folded sinks deterministic at any jobs count.
            config_.obs->metrics.absorb(shard->metrics);
            config_.obs->trace.absorb(shard->traceBuf);
        }
    }
    if (config_.obs)
        config_.obs->trace.absorb(engineTraceBuf_);
}

bool
TopologySim::runToConvergence(sim::SimTime limit)
{
    bool converged = runWindows(limit);
    absorbShardTrackers();
    return converged;
}

bool
TopologySim::locRibsConsistent() const
{
    for (const auto &[origin, prefix] : originated_) {
        if (!speakers_[origin]->locRib().find(prefix))
            return false;
    }
    for (size_t l = 0; l < topo_.linkCount(); ++l) {
        if (!linkUp(l))
            continue;
        // Both ends know each other by the link index.
        const Link &link = topo_.link(l);
        const bgp::BgpSpeaker &a = *speakers_[link.a.node];
        const bgp::BgpSpeaker &b = *speakers_[link.b.node];
        const auto peer = bgp::PeerId(l);
        if (a.sessionState(peer) != bgp::SessionState::Established ||
            b.sessionState(peer) != bgp::SessionState::Established ||
            !adjacencyAgrees(a, b, peer, link.b.importPolicy) ||
            !adjacencyAgrees(b, a, peer, link.a.importPolicy))
            return false;
    }
    return true;
}

ConvergenceReport
TopologySim::report(const std::string &scenario,
                    const std::string &shape) const
{
    ConvergenceReport out;
    out.scenario = scenario;
    out.shape = shape;
    out.nodes = topo_.nodeCount();
    out.links = topo_.linkCount();
    out.converged = pendingEvents() == 0;
    out.convergenceTimeSec = tracker_.convergenceTimeSec();
    out.totalUpdates = tracker_.updatesDelivered();
    out.totalTransactions = tracker_.transactionsDelivered();
    out.droppedSegments = tracker_.droppedSegments();
    out.pathExplorationMax = tracker_.maxPathsExplored();
    out.pathExplorationMean = tracker_.meanPathsExplored();

    for (size_t i = 0; i < topo_.nodeCount(); ++i) {
        const bgp::SpeakerCounters &counters =
            speakers_[i]->counters();
        RouterReport router;
        router.name = topo_.node(i).name;
        router.updatesReceived = counters.updatesReceived;
        router.updatesSent = counters.updatesSent;
        router.transactions = counters.transactionsProcessed();
        router.tps = out.convergenceTimeSec > 0
                         ? double(router.transactions) /
                               out.convergenceTimeSec
                         : 0.0;
        out.routers.push_back(std::move(router));
    }
    return out;
}

void
TopologySim::publishParallelMetrics(
    obs::MetricRegistry &registry) const
{
    registry.gauge(obs::metric::parallelJobs).set(double(workers_));
    registry.gauge(obs::metric::parallelShards)
        .set(double(partition_.shardCount));
    registry.gauge(obs::metric::parallelCutLinks)
        .set(double(partition_.cutLinks));
    registry.gauge(obs::metric::parallelEdgeCutRatio)
        .set(partition_.edgeCutRatio);
    registry.gauge(obs::metric::parallelNodeSkew)
        .set(partition_.nodeSkew);
    registry.gauge(obs::metric::parallelLookaheadNs)
        .set(partition_.minCutLatencyNs != sim::simTimeNever
                 ? double(partition_.minCutLatencyNs)
                 : 0.0);
    registry.counter(obs::metric::parallelWindows).add(windows_);
    // Sync-layer counters. Window length is virtual time and fully
    // deterministic; barrier wait and steal counts are host-side
    // diagnostics (nondeterministic by nature) and must never feed
    // anything whose bytes are compared across runs.
    registry.counter(obs::metric::topoWindowLenNs)
        .add(windowLenSumNs_);
    uint64_t barrier_wait = 0;
    if (config_.obs) {
        for (uint64_t ns : workerBarrierWaitNs_)
            barrier_wait += ns;
    }
    registry.counter(obs::metric::topoBarrierWaitNs).add(barrier_wait);
    registry.counter(obs::metric::topoStealCount)
        .add(stealCount_.load(std::memory_order_relaxed));
    for (const auto &shard : shards_) {
        registry.gauge(obs::shardMetricName(shard->index, "nodes"))
            .set(double(partition_.shardNodes[shard->index]));
        registry.counter(obs::shardMetricName(shard->index, "events"))
            .add(shard->sim.eventsExecuted());
        registry
            .counter(
                obs::shardMetricName(shard->index, "busy_host_ns"))
            .add(shard->hostBusyNs);
    }
}

} // namespace bgpbench::topo
