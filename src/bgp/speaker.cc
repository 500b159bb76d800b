#include "bgp/speaker.hh"

#include <algorithm>

#include "net/logging.hh"
#include "obs/views.hh"

namespace bgpbench::bgp
{

namespace
{

/** Detached-instrumentation guard: one branch when unbound. */
inline void
bump(obs::Counter *counter, uint64_t n = 1)
{
    if (counter)
        counter->add(n);
}

} // namespace

void
BgpSpeaker::bindObservability(obs::MetricRegistry *registry,
                              obs::Tracer *tracer, uint32_t track)
{
    obs_ = ObsHandles{};
    obs_.tracer = tracer;
    obs_.track = track;
    if (!registry)
        return;
    obs_.updatesReceived = &registry->counter("bgp.updates_received");
    obs_.updatesSent = &registry->counter("bgp.updates_sent");
    obs_.prefixesAdvertised =
        &registry->counter("bgp.prefixes_advertised");
    obs_.decisionRuns = &registry->counter("bgp.decision_runs");
    obs_.locRibChanges = &registry->counter("rib.loc_rib_changes");
    obs_.fibChanges = &registry->counter("rib.fib_changes");
    obs_.sessionTransitions =
        &registry->counter("bgp.session_transitions");
    obs_.policyEvals =
        &registry->counter(obs::metric::bgpPolicyEvals);
    obs_.policyRejects =
        &registry->counter(obs::metric::bgpPolicyRejects);
    obs_.ecmpGroups = &registry->counter(obs::metric::bgpEcmpGroups);
    obs_.dampingSuppressed =
        &registry->counter(obs::metric::bgpDampingSuppressed);
    obs_.dampingReused =
        &registry->counter(obs::metric::bgpDampingReused);
    obs_.mraiDeferrals =
        &registry->counter(obs::metric::bgpMraiDeferrals);
    obs_.decisionCandidates = &registry->histogram(
        "bgp.decision_candidates", {1, 2, 4, 8, 16, 32, 64});
}

BgpSpeaker::BgpSpeaker(SpeakerConfig config, SpeakerEvents *events)
    : config_(std::move(config)), events_(events),
      prefixTable_(std::make_unique<SharedPrefixTable>()),
      localRoutes_(*prefixTable_), damper_(config_.damping),
      locRib_(*prefixTable_)
{
    panicIf(events_ == nullptr, "BgpSpeaker requires an event sink");
    if (config_.localAs == 0)
        fatal("speaker configured with AS 0");
    if (config_.routerId == 0)
        fatal("speaker configured with router-id 0");
}

void
BgpSpeaker::addPeer(PeerConfig config)
{
    if (config.id == localPeerId)
        fatal("peer id collides with the local pseudo peer");
    if (peers_.count(config.id))
        fatal("duplicate peer id " + std::to_string(config.id));
    if (config.asn == 0)
        fatal("peer configured with AS 0");

    SessionConfig session;
    session.localAs = config_.localAs;
    session.localId = config_.routerId;
    session.holdTimeSec = config_.holdTimeSec;
    session.expectedPeerAs = config.asn;

    auto peer = std::make_unique<Peer>(std::move(config), session,
                                       config_.packing, *prefixTable_);
    peer->externalSession = peer->config.asn != config_.localAs;
    peers_.emplace(peer->config.id, std::move(peer));
}

BgpSpeaker::Peer &
BgpSpeaker::peerRef(PeerId peer)
{
    auto it = peers_.find(peer);
    if (it == peers_.end())
        fatal("unknown peer id " + std::to_string(peer));
    return *it->second;
}

const BgpSpeaker::Peer &
BgpSpeaker::peerRef(PeerId peer) const
{
    auto it = peers_.find(peer);
    if (it == peers_.end())
        fatal("unknown peer id " + std::to_string(peer));
    return *it->second;
}

std::vector<PeerId>
BgpSpeaker::peerIds() const
{
    std::vector<PeerId> ids;
    ids.reserve(peers_.size());
    for (const auto &[id, peer] : peers_)
        ids.push_back(id);
    return ids;
}

SessionState
BgpSpeaker::sessionState(PeerId peer) const
{
    return peerRef(peer).fsm.state();
}

const AdjRibIn &
BgpSpeaker::adjRibIn(PeerId peer) const
{
    if (peer == localPeerId)
        return localRoutes_;
    return peerRef(peer).ribIn;
}

const AdjRibOut &
BgpSpeaker::adjRibOut(PeerId peer) const
{
    return peerRef(peer).ribOut;
}

void
BgpSpeaker::transmit(Peer &peer, const std::vector<Message> &msgs)
{
    for (const auto &msg : msgs) {
        MessageType type = messageType(msg);
        if (type == MessageType::Notification)
            ++counters_.notificationsSent;
        events_->onTransmit(peer.config.id, type, encodeSegment(msg), 0);
    }
}

namespace
{

/**
 * Content hash of an UPDATE for the encode-once cache. Attributes are
 * folded in by pointer: the interner canonicalises equal-content
 * attribute sets to one instance, which is precisely the situation
 * (identical export to many peers) the cache targets. Distinct
 * pointers with equal content merely miss the cache — never unsound,
 * because hits still verify sameUpdateContent().
 */
uint64_t
updateContentHash(const UpdateMessage &msg)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(uint64_t(reinterpret_cast<uintptr_t>(msg.attributes.get())));
    mix(msg.withdrawnRoutes.size());
    for (const auto &prefix : msg.withdrawnRoutes) {
        mix(uint64_t(prefix.address().toUint32()));
        mix(uint64_t(prefix.length()));
    }
    mix(msg.nlri.size());
    for (const auto &prefix : msg.nlri) {
        mix(uint64_t(prefix.address().toUint32()));
        mix(uint64_t(prefix.length()));
    }
    return h;
}

/**
 * Exact wire-content equality: same attribute instance (pointer —
 * equal-content duplicates encode identically but are not claimed)
 * and identical prefix lists in order.
 */
bool
sameUpdateContent(const UpdateMessage &a, const UpdateMessage &b)
{
    return a.attributes == b.attributes &&
           a.withdrawnRoutes == b.withdrawnRoutes && a.nlri == b.nlri;
}

} // namespace

void
BgpSpeaker::transmitUpdates(Peer &peer,
                            std::vector<UpdateMessage> &updates)
{
    for (auto &update : updates) {
        size_t transactions = update.transactionCount();
        ++counters_.updatesSent;
        counters_.prefixesAdvertised += transactions;
        bump(obs_.updatesSent);
        bump(obs_.prefixesAdvertised, transactions);

        net::WireSegmentPtr wire;
        bool inserted = false;
        uint32_t &cached = encodeIndex_.findOrInsert(
            updateContentHash(update),
            [&](uint32_t i) {
                return sameUpdateContent(encodeCache_[i].message, update);
            },
            inserted);
        if (inserted) {
            cached = uint32_t(encodeCache_.size());
            wire = encodeSegment(update);
            encodeCache_.push_back(CachedWire{std::move(update), wire});
        } else {
            wire = encodeCache_[cached].wire;
            net::BufferPool::global().noteShared(wire->size());
        }
        events_->onTransmit(peer.config.id, MessageType::Update,
                            std::move(wire), transactions);
    }
    updates.clear();
}

void
BgpSpeaker::noteStateChange(Peer &peer, SessionState before,
                            TimeNs now)
{
    SessionState after = peer.fsm.state();
    if (after == before)
        return;

    bump(obs_.sessionTransitions);
    if (obs_.tracer) {
        // Mark the transition at its virtual time, named by the new
        // state (static strings; the buffer stores the pointer).
        obs_.tracer->instant(sessionStateName(after), "session",
                             obs::kTrackRouters, obs_.track, now);
    }

    events_->onSessionStateChange(peer.config.id, before, after);

    if (after == SessionState::Established) {
        markEstablished(peer);
        advertiseFullTable(peer, now);
    } else if (before == SessionState::Established) {
        unmarkEstablished(peer);
        invalidatePeerRoutes(peer, now);
    }
}

void
BgpSpeaker::markEstablished(Peer &peer)
{
    auto less = [](const Peer *a, const Peer *b) {
        return a->config.id < b->config.id;
    };
    auto pos = std::lower_bound(establishedPeers_.begin(),
                                establishedPeers_.end(), &peer, less);
    if (pos == establishedPeers_.end() || *pos != &peer)
        establishedPeers_.insert(pos, &peer);
}

void
BgpSpeaker::unmarkEstablished(Peer &peer)
{
    auto pos = std::find(establishedPeers_.begin(),
                         establishedPeers_.end(), &peer);
    if (pos != establishedPeers_.end())
        establishedPeers_.erase(pos);
}

void
BgpSpeaker::startPeer(PeerId peer, TimeNs now)
{
    Peer &p = peerRef(peer);
    SessionState before = p.fsm.state();
    p.fsm.start(now);
    noteStateChange(p, before, now);
}

void
BgpSpeaker::stopPeer(PeerId peer, TimeNs now)
{
    Peer &p = peerRef(peer);
    SessionState before = p.fsm.state();
    std::vector<Message> tx;
    p.fsm.stop(now, tx);
    transmit(p, tx);
    noteStateChange(p, before, now);
}

void
BgpSpeaker::tcpEstablished(PeerId peer, TimeNs now)
{
    Peer &p = peerRef(peer);
    // A new connection is a new byte stream: nothing of the last one,
    // a framing failure included, carries over.
    p.decoder = StreamDecoder{};
    SessionState before = p.fsm.state();
    std::vector<Message> tx;
    p.fsm.tcpEstablished(now, tx);
    transmit(p, tx);
    noteStateChange(p, before, now);
}

void
BgpSpeaker::tcpClosed(PeerId peer, TimeNs now)
{
    Peer &p = peerRef(peer);
    p.decoder = StreamDecoder{};
    SessionState before = p.fsm.state();
    p.fsm.tcpClosed(now);
    noteStateChange(p, before, now);
}

void
BgpSpeaker::streamFailed(PeerId peer, const DecodeError &error,
                         TimeNs now)
{
    Peer &p = peerRef(peer);
    SessionState before = p.fsm.state();
    std::vector<Message> tx;
    p.fsm.streamFailed(error, tx);
    transmit(p, tx);
    noteStateChange(p, before, now);
}

void
BgpSpeaker::receiveBytes(PeerId peer, std::span<const uint8_t> bytes,
                         TimeNs now)
{
    Peer &p = peerRef(peer);
    p.decoder.feed(bytes);
    drainDecoder(p, now);
}

void
BgpSpeaker::receiveSegment(PeerId peer, net::WireSegmentPtr segment,
                           TimeNs now)
{
    Peer &p = peerRef(peer);
    p.decoder.feed(std::move(segment));
    drainDecoder(p, now);
}

void
BgpSpeaker::drainDecoder(Peer &p, TimeNs now)
{
    DecodeError error;
    while (auto msg = p.decoder.next(error))
        handleMessage(p.config.id, *msg, now);
    if (error)
        streamFailed(p.config.id, error, now);
}

void
BgpSpeaker::handleMessage(PeerId peer, const Message &msg, TimeNs now)
{
    Peer &p = peerRef(peer);
    SessionState before = p.fsm.state();
    const UpdateMessage *update = std::get_if<UpdateMessage>(&msg);
    if (update)
        events_->onUpdateReceived(peer, *update);

    std::vector<Message> tx;
    bool alive = p.fsm.handleMessage(msg, now, tx);
    transmit(p, tx);

    if (alive && p.fsm.established()) {
        if (update) {
            processUpdate(p, *update, now);
        } else if (messageType(msg) == MessageType::RouteRefresh) {
            // RFC 2918: re-send our entire Adj-RIB-Out to the peer.
            // Forgetting what was advertised makes every route
            // "changed" so advertiseFullTable re-emits it all.
            p.ribOut.clear();
            advertiseFullTable(p, now);
        }
    }

    noteStateChange(p, before, now);
}

void
BgpSpeaker::pollTimers(TimeNs now)
{
    for (auto &[id, peer] : peers_) {
        SessionState before = peer->fsm.state();
        std::vector<Message> tx;
        peer->fsm.poll(now, tx);
        transmit(*peer, tx);
        noteStateChange(*peer, before, now);
    }

    // Routes whose damping penalty decayed below the reuse threshold
    // re-enter the decision process (RFC 2439 reuse lists).
    if (config_.damping.enabled) {
        readmitReusable(now);
        flushPending(now);
        syncDampingObs();
    }
}

void
BgpSpeaker::serviceWakeup(TimeNs now)
{
    wakeupArmedAt_ = 0;
    if (config_.damping.enabled)
        readmitReusable(now);
    flushPending(now);
    if (config_.damping.enabled) {
        armDampingWakeup(now);
        syncDampingObs();
    }
}

void
BgpSpeaker::requestWakeup(TimeNs at)
{
    if (wakeupArmedAt_ != 0 && wakeupArmedAt_ <= at)
        return;
    wakeupArmedAt_ = at;
    events_->onWakeupRequested(at);
}

void
BgpSpeaker::readmitReusable(TimeNs now)
{
    UpdateStats stats;
    for (const auto &[peer, prefix] : damper_.takeReusable(now))
        runDecision(prefix, prefixTable_->find(prefix), stats, now);
}

void
BgpSpeaker::armDampingWakeup(TimeNs now)
{
    TimeNs at = damper_.nextReuseTime(now);
    if (at != 0)
        requestWakeup(at);
}

void
BgpSpeaker::syncDampingObs()
{
    uint64_t suppressed = damper_.suppressTransitions();
    if (suppressed > dampingSuppressedSeen_) {
        bump(obs_.dampingSuppressed,
             suppressed - dampingSuppressedSeen_);
        dampingSuppressedSeen_ = suppressed;
    }
    uint64_t reused = damper_.reuseTransitions();
    if (reused > dampingReusedSeen_) {
        bump(obs_.dampingReused, reused - dampingReusedSeen_);
        dampingReusedSeen_ = reused;
    }
}

void
BgpSpeaker::processUpdate(Peer &from, const UpdateMessage &msg,
                          TimeNs now)
{
    ++counters_.updatesReceived;
    bump(obs_.updatesReceived);
    // Speaker work is instantaneous in virtual time (processing cost
    // is charged by the owning router/topology layer), so this span
    // is a zero-duration marker delimiting the decision/export
    // activity of one inbound UPDATE.
    OBS_SPAN(obs_.tracer, "update", "bgp", obs::kTrackRouters,
             obs_.track, [now] { return now; });
    UpdateStats stats;

    // Each prefix's slot in the shared table is resolved once, by its
    // Adj-RIB-In write (or withdraw), and threaded through the decision
    // to the Loc-RIB and every Adj-RIB-Out.
    for (const auto &prefix : msg.withdrawnRoutes) {
        ++counters_.withdrawalsProcessed;
        damper_.onWithdraw(from.config.id, prefix, now);
        if (Slot slot = from.ribIn.withdraw(prefix); slot != noSlot)
            runDecision(prefix, slot, stats, now);
    }

    if (!msg.nlri.empty()) {
        PathAttributesPtr received = msg.attributes;

        // RFC 4271 9.1.2: routes whose AS_PATH contains our own AS
        // would loop; RFC 4456 section 8 adds the reflection loop
        // checks on ORIGINATOR_ID and CLUSTER_LIST.
        uint32_t cluster_id =
            config_.clusterId ? config_.clusterId : config_.routerId;
        bool looped =
            received &&
            (received->asPath.contains(config_.localAs) ||
             (received->originatorId &&
              *received->originatorId == config_.routerId) ||
             std::find(received->clusterList.begin(),
                       received->clusterList.end(),
                       cluster_id) != received->clusterList.end());

        for (const auto &prefix : msg.nlri) {
            ++counters_.announcementsProcessed;
            if (looped) {
                if (Slot slot = from.ribIn.withdraw(prefix);
                    slot != noSlot)
                    runDecision(prefix, slot, stats, now);
                continue;
            }

            if (!from.config.importPolicy.empty())
                bump(obs_.policyEvals);
            PathAttributesPtr effective =
                from.config.importPolicy.apply(prefix, received);
            if (!effective)
                bump(obs_.policyRejects);
            AdjRibIn::Write write =
                from.ribIn.update(prefix, received, std::move(effective));

            // Flap damping: a re-announcement or attribute change of
            // a tracked flapper accrues penalty; suppressed routes
            // are stored but kept out of the decision process. The
            // write above compared against the previous entry, so
            // this needs no lookup of its own.
            bool suppressed = damper_.onAnnounce(
                from.config.id, prefix, write.attributeChange, now);
            if (suppressed)
                ++counters_.announcementsSuppressed;

            if (write.changed || suppressed)
                runDecision(prefix, write.slot, stats, now);
        }
    }

    flushPending(now);
    if (config_.damping.enabled) {
        // A wakeup at the damper's next reuse boundary lets owners
        // that never call pollTimers (the topology simulator) re-admit
        // suppressed routes deterministically in virtual time.
        armDampingWakeup(now);
        syncDampingObs();
    }
    events_->onUpdateProcessed(from.config.id, stats);
}

void
BgpSpeaker::runDecision(const net::Prefix &prefix, Slot slot,
                        UpdateStats &stats, TimeNs now)
{
    ++counters_.decisionRuns;
    bump(obs_.decisionRuns);

    // Every RIB of this speaker is a column over the shared table, so
    // with the prefix's slot in hand the per-peer reads, the Loc-RIB
    // update and the Adj-RIB-Out fan-out below are O(1) column
    // accesses, not tree walks. noSlot, or a slot the caller's
    // withdraw just freed, reads as absent in every column: then
    // there is no candidate and nothing to withdraw.

    // Collect candidates: every established peer's import-accepted
    // route plus any locally originated route.
    std::vector<Candidate> &candidates = candidates_;
    for (Peer *peer : establishedPeers_) {
        const auto *entry = peer->ribIn.findAt(slot);
        if (!entry || !entry->effective)
            continue;
        if (damper_.isSuppressed(peer->config.id, prefix, now))
            continue;
        candidates.push_back(Candidate{entry->effective,
                                       peer->config.id,
                                       peer->fsm.peerRouterId(),
                                       peer->externalSession});
    }
    if (const auto *local = localRoutes_.findAt(slot);
        local && local->effective) {
        candidates.push_back(Candidate{local->effective, localPeerId,
                                       config_.routerId, false,
                                       true});
    }

    if (obs_.decisionCandidates)
        obs_.decisionCandidates->record(candidates.size());

    selectMultipath(candidates, config_.decision, group_);

    if (group_.empty()) {
        if (locRib_.removeAt(slot)) {
            ++counters_.locRibChanges;
            ++counters_.fibChanges;
            ++stats.locRibChanges;
            bump(obs_.locRibChanges);
            bump(obs_.fibChanges);
            ++ribVersion_;
            ribDirty_ = true;
            events_->onFibUpdate(FibUpdate{prefix, std::nullopt, {}});
            for (Peer *peer : establishedPeers_)
                updateAdjOut(*peer, prefix, slot, nullptr);
        }
    } else {
        // Install the group: the best path plus its multipath
        // equals, none with maximum-paths 1. The FIB only cares about
        // the next-hop list; a change that keeps it (e.g. a MED
        // change on the same session) does not touch the FIB. Only
        // the best path is advertised to peers (standard BGP
        // semantics).
        previousHops_.clear();
        if (const auto *previous = locRib_.findAt(slot))
            previous->nextHops(previousHops_);
        auto outcome = locRib_.selectAt(slot, candidates, group_);
        if (outcome.groupChanged) {
            ++counters_.locRibChanges;
            ++stats.locRibChanges;
            bump(obs_.locRibChanges);
            ++ribVersion_;
            ribDirty_ = true;

            const auto *entry = locRib_.findAt(slot);
            if (!entry->multipath.empty())
                bump(obs_.ecmpGroups);
            entry->nextHops(hops_);
            if (hops_ != previousHops_) {
                ++counters_.fibChanges;
                bump(obs_.fibChanges);
                events_->onFibUpdate(
                    FibUpdate{prefix, hops_.front(),
                              {hops_.begin() + 1, hops_.end()}});
            }
        }
        if (outcome.bestChanged) {
            const Candidate &best = candidates[group_.front()];
            for (Peer *peer : establishedPeers_)
                updateAdjOut(*peer, prefix, slot, &best);
        }
    }

    // Release the scratch's attribute references now, as a local
    // vector going out of scope would; the capacity stays.
    candidates.clear();
    ++decisionsSincePublish_;
    maybePublishRib(now, false);
}

void
BgpSpeaker::updateAdjOut(Peer &peer, const net::Prefix &prefix,
                         Slot slot, const Candidate *best)
{
    if (!peer.fsm.established())
        return;

    auto send_withdraw_if_advertised = [&]() {
        if (peer.ribOut.withdrawAt(slot))
            peer.pending.withdraw(prefix);
    };

    if (!best) {
        send_withdraw_if_advertised();
        return;
    }

    // Do not advertise a route back to the peer it was learned from.
    if (best->peer == peer.config.id) {
        send_withdraw_if_advertised();
        return;
    }
    // iBGP-learned routes are only re-advertised to iBGP peers under
    // the route-reflection rules of RFC 4456: routes from clients go
    // to everyone, routes from non-clients go to clients only.
    bool reflecting = false;
    if (!best->externalSession && !peer.externalSession &&
        best->peer != localPeerId) {
        auto source = peers_.find(best->peer);
        bool source_client =
            source != peers_.end() &&
            source->second->config.routeReflectorClient;
        bool target_client = peer.config.routeReflectorClient;
        if (!source_client && !target_client) {
            send_withdraw_if_advertised();
            return;
        }
        reflecting = true;
    }

    // The export route-map, if one is attached, runs first. What
    // follows is the same whether or not a map ran.
    PathAttributesPtr mapped;
    if (!peer.config.exportPolicy.empty()) {
        bump(obs_.policyEvals);
        mapped = peer.config.exportPolicy.apply(
            prefix, best->attributes, config_.localAs);
        if (!mapped) {
            bump(obs_.policyRejects);
            send_withdraw_if_advertised();
            return;
        }
    }
    const PathAttributesPtr &attrs = mapped ? mapped : best->attributes;

    auto advertise = [&](const PathAttributesPtr &exported) {
        if (peer.ribOut.advertiseAt(slot, exported))
            peer.pending.announce(prefix, exported);
    };

    if (peer.externalSession) {
        // Sender-side loop avoidance: the peer would discard a path
        // containing its own AS (RFC 4271 9.1.2), so don't send one.
        if (attrs->asPath.contains(peer.config.asn)) {
            send_withdraw_if_advertised();
            return;
        }
        advertise(ebgpExport(attrs));
    } else if (reflecting) {
        // RFC 4456 section 8: stamp the originator and prepend our
        // cluster id; everything else is reflected unchanged.
        PathAttributes out = *attrs;
        if (!out.originatorId)
            out.originatorId = best->peerRouterId;
        out.clusterList.insert(
            out.clusterList.begin(),
            config_.clusterId ? config_.clusterId : config_.routerId);
        advertise(makeAttributes(std::move(out)));
    } else {
        advertise(attrs);
    }
}

size_t
BgpSpeaker::ribMemoryBytes() const
{
    size_t bytes = prefixTable_->memoryBytes() + locRib_.memoryBytes() +
                   localRoutes_.memoryBytes();
    for (const auto &[id, peer] : peers_)
        bytes += peer->ribIn.memoryBytes() +
                 peer->ribOut.memoryBytes();
    return bytes;
}

size_t
BgpSpeaker::prefixTableDescentNodes() const
{
    return prefixTable_->descentNodes();
}

void
BgpSpeaker::reserveRoutes(size_t prefixes)
{
    prefixTable_->reserve(prefixes);
    // localRoutes_ is deliberately left alone: locally originated
    // routes number in the dozens, not at table scale.
    locRib_.reserve(prefixes);
    for (auto &[id, peer] : peers_) {
        peer->ribIn.reserve(prefixes);
        peer->ribOut.reserve(prefixes);
    }
}

const PathAttributesPtr &
BgpSpeaker::ebgpExport(const PathAttributesPtr &attrs)
{
    // The memo is keyed on pointer identity, which stays hot across
    // messages, decision runs and peers because the interner
    // canonicalises attributes: a full-table load runs one transform
    // per distinct attribute set, not one per prefix and peer.
    if (exportMemo_.size() >= exportMemoCap)
        exportMemo_.clear();
    auto [memo, missed] = exportMemo_.try_emplace(attrs);
    if (missed) {
        PathAttributes out = *attrs;
        out.asPath.prepend(config_.localAs);
        out.nextHop = config_.localAddress;
        // LOCAL_PREF is never sent on eBGP sessions (RFC 4271 5.1.5),
        // and the reflection attributes are non-transitive.
        out.localPref.reset();
        out.originatorId.reset();
        out.clusterList.clear();
        memo->second = makeAttributes(std::move(out));
    }
    return memo->second;
}

void
BgpSpeaker::flushPending(TimeNs now)
{
    OBS_SPAN(obs_.tracer, "export", "bgp", obs::kTrackRouters,
             obs_.track, [now] { return now; });
    TimeNs next_deadline = 0;
    for (auto &[id, peer] : peers_) {
        if (peer->pending.empty())
            continue;
        if (!peer->fsm.established())
            continue;
        if (config_.mraiNs != 0 && now < peer->mraiReadyAt) {
            // MRAI still running: the queue keeps accumulating (the
            // builder's supersession collapses transient churn) until
            // the wakeup at the interval boundary.
            if (next_deadline == 0 ||
                peer->mraiReadyAt < next_deadline)
                next_deadline = peer->mraiReadyAt;
            ++counters_.mraiDeferrals;
            bump(obs_.mraiDeferrals);
            continue;
        }
        peer->pending.build(outbound_);
        transmitUpdates(*peer, outbound_);
        if (config_.mraiNs != 0)
            peer->mraiReadyAt = now + config_.mraiNs;
    }
    // The cache only needs to live across the peer loop above — that
    // is where the same UPDATE content fans out — and emptying it now
    // stops it pinning segments after they leave the transmit queues.
    // Its storage and the outbound vector's stay for the next flush,
    // under the per-peer builders' retention limit.
    encodeCache_.clear();
    encodeIndex_.reset();
    size_t scratch_bytes = outbound_.capacity() * sizeof(UpdateMessage) +
                           encodeCache_.capacity() * sizeof(CachedWire) +
                           encodeIndex_.memoryBytes();
    if (scratch_bytes > UpdateBuilder::retainBytes) {
        encodeCache_ = {};
        encodeIndex_ = {};
        outbound_ = {};
    }
    maybePublishRib(now, true);
    if (next_deadline != 0)
        requestWakeup(next_deadline);
}

void
BgpSpeaker::bindRibListener(RibListener *listener,
                            uint64_t everyDecisions)
{
    ribListener_ = listener;
    publishEveryDecisions_ = everyDecisions;
    decisionsSincePublish_ = 0;
    // A non-empty Loc-RIB is published immediately so a listener
    // attached to a converged speaker need not wait for the next
    // change to see the table.
    ribDirty_ = ribListener_ && !locRib_.empty();
}

void
BgpSpeaker::publishRib(TimeNs now)
{
    decisionsSincePublish_ = 0;
    ribDirty_ = false;
    ribListener_->onRibPublish(locRib_, ribVersion_, now);
}

void
BgpSpeaker::advertiseFullTable(Peer &peer, TimeNs now)
{
    OBS_SPAN(obs_.tracer, "full_table_export", "bgp",
             obs::kTrackRouters, obs_.track, [now] { return now; });
    locRib_.forEachWithSlot([&](const net::Prefix &prefix, Slot slot,
                                const LocRib::Entry &entry) {
        updateAdjOut(peer, prefix, slot, &entry.best);
    });
    flushPending(now);
}

void
BgpSpeaker::invalidatePeerRoutes(Peer &peer, TimeNs now)
{
    // Collect first: runDecision touches the peer's Adj-RIB-In.
    std::vector<net::Prefix> prefixes;
    prefixes.reserve(peer.ribIn.size());
    peer.ribIn.forEach([&](const net::Prefix &prefix,
                           const AdjRibIn::Entry &) {
        prefixes.push_back(prefix);
    });
    peer.ribIn.clear();
    peer.ribOut.clear();
    // MRAI may have left changes queued for this peer; they must not
    // leak into the next session (a fresh Established re-advertises
    // the full table from scratch, with the interval idle again).
    peer.pending = UpdateBuilder(config_.packing);
    peer.mraiReadyAt = 0;

    UpdateStats stats;
    for (const auto &prefix : prefixes)
        runDecision(prefix, prefixTable_->find(prefix), stats, now);
    flushPending(now);
}

void
BgpSpeaker::originate(const net::Prefix &prefix,
                      PathAttributesPtr attrs, TimeNs now)
{
    if (!attrs)
        fatal("originate() requires attributes");
    UpdateStats stats;
    Slot slot = localRoutes_.update(prefix, attrs, attrs).slot;
    runDecision(prefix, slot, stats, now);
    flushPending(now);
}

void
BgpSpeaker::withdrawLocal(const net::Prefix &prefix, TimeNs now)
{
    UpdateStats stats;
    if (Slot slot = localRoutes_.withdraw(prefix); slot != noSlot)
        runDecision(prefix, slot, stats, now);
    flushPending(now);
}

} // namespace bgpbench::bgp
