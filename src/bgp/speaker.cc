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
        size_t transactions = 0;
        if (type == MessageType::Update) {
            transactions =
                std::get<UpdateMessage>(msg).transactionCount();
            ++counters_.updatesSent;
            counters_.prefixesAdvertised += transactions;
            bump(obs_.updatesSent);
            bump(obs_.prefixesAdvertised, transactions);
        } else if (type == MessageType::Notification) {
            ++counters_.notificationsSent;
        }
        events_->onTransmit(peer.config.id, type, encodeSegment(msg),
                            transactions);
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
    SessionState before = p.fsm.state();
    p.fsm.tcpClosed(now);
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
    while (true) {
        auto msg = p.decoder.next(error);
        if (!msg) {
            if (error) {
                // RFC 4271 section 6: answer a malformed message with
                // the corresponding NOTIFICATION and close.
                SessionState before = p.fsm.state();
                std::vector<Message> tx;
                tx.push_back(NotificationMessage{
                    error.code, error.subcode, {}});
                std::vector<Message> more;
                p.fsm.stop(now, more);
                transmit(p, tx);
                noteStateChange(p, before, now);
            }
            return;
        }
        handleMessage(p.config.id, *msg, now);
        // The session may have died while handling the message.
        if (p.fsm.state() == SessionState::Idle && p.decoder.failed())
            return;
    }
}

void
BgpSpeaker::handleMessage(PeerId peer, const Message &msg, TimeNs now)
{
    Peer &p = peerRef(peer);
    SessionState before = p.fsm.state();

    std::vector<Message> tx;
    bool alive = p.fsm.handleMessage(msg, now, tx);
    transmit(p, tx);

    if (alive && p.fsm.established()) {
        if (messageType(msg) == MessageType::Update) {
            processUpdate(p, std::get<UpdateMessage>(msg), now);
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
        ++stats.withdrawnPrefixes;
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
            ++stats.announcedPrefixes;
            if (looped) {
                ++stats.rejectedByPolicy;
                if (Slot slot = from.ribIn.withdraw(prefix);
                    slot != noSlot)
                    runDecision(prefix, slot, stats, now);
                continue;
            }

            if (!from.config.importPolicy.empty())
                bump(obs_.policyEvals);
            PathAttributesPtr effective =
                from.config.importPolicy.apply(prefix, received);
            if (!effective) {
                ++stats.rejectedByPolicy;
                bump(obs_.policyRejects);
            }
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

    auto best_index = selectBest(candidates, config_.decision);

    if (!best_index) {
        if (locRib_.removeAt(slot)) {
            ++counters_.locRibChanges;
            ++counters_.fibChanges;
            ++stats.locRibChanges;
            ++stats.fibChanges;
            bump(obs_.locRibChanges);
            bump(obs_.fibChanges);
            ++ribVersion_;
            ribDirty_ = true;
            events_->onFibUpdate(FibUpdate{prefix, std::nullopt, {}});
            for (Peer *peer : establishedPeers_)
                updateAdjOut(*peer, prefix, slot, nullptr, stats);
        }
    } else if (config_.decision.maxPaths <= 1) {
        const Candidate &best = candidates[*best_index];
        const auto *previous = locRib_.findAt(slot);
        bool next_hop_changed =
            !previous || !previous->best.attributes ||
            previous->best.attributes->nextHop !=
                best.attributes->nextHop;

        if (locRib_.selectAt(slot, best).bestChanged) {
            ++counters_.locRibChanges;
            ++stats.locRibChanges;
            bump(obs_.locRibChanges);
            ++ribVersion_;
            ribDirty_ = true;
            // The forwarding table only cares about the next hop; a
            // best-path change that keeps the next hop (e.g. a MED
            // change on the same session) does not touch the FIB.
            if (next_hop_changed) {
                ++counters_.fibChanges;
                ++stats.fibChanges;
                bump(obs_.fibChanges);
                events_->onFibUpdate(
                    FibUpdate{prefix, best.attributes->nextHop, {}});
            }
            for (Peer *peer : establishedPeers_)
                updateAdjOut(*peer, prefix, slot, &best, stats);
        }
    } else {
        installMultipath(prefix, slot, stats);
    }

    // Release the scratch's attribute references now, as a local
    // vector going out of scope would; the capacity stays.
    candidates.clear();
    ++decisionsSincePublish_;
    maybePublishRib(now, false);
}

void
BgpSpeaker::installMultipath(const net::Prefix &prefix, Slot slot,
                             UpdateStats &stats)
{
    // maximum-paths > 1: install the full ECMP group. Only the best
    // path is advertised to peers (standard BGP semantics); the
    // multipath set feeds the Loc-RIB, the FIB, and snapshots.
    auto group = selectMultipath(candidates_, config_.decision);
    const Candidate &best = candidates_[group[0]];
    std::vector<Candidate> multipath;
    multipath.reserve(group.size() - 1);
    for (size_t k = 1; k < group.size(); ++k)
        multipath.push_back(candidates_[group[k]]);

    // Deterministic deduplicated hop list in group order; the FIB
    // sees a change exactly when this list changes.
    auto hops_of = [](const Candidate &b,
                      const std::vector<Candidate> &rest) {
        std::vector<net::Ipv4Address> hops{b.attributes->nextHop};
        for (const Candidate &c : rest) {
            net::Ipv4Address hop = c.attributes->nextHop;
            if (std::find(hops.begin(), hops.end(), hop) == hops.end())
                hops.push_back(hop);
        }
        return hops;
    };

    const auto *previous = locRib_.findAt(slot);
    std::vector<net::Ipv4Address> previous_hops;
    if (previous && previous->best.attributes)
        previous_hops = hops_of(previous->best, previous->multipath);

    auto outcome = locRib_.selectAt(slot, best, std::move(multipath));
    if (outcome.groupChanged) {
        ++counters_.locRibChanges;
        ++stats.locRibChanges;
        bump(obs_.locRibChanges);
        ++ribVersion_;
        ribDirty_ = true;

        const auto *entry = locRib_.findAt(slot);
        if (!entry->multipath.empty())
            bump(obs_.ecmpGroups);
        std::vector<net::Ipv4Address> hops =
            hops_of(entry->best, entry->multipath);
        if (hops != previous_hops) {
            ++counters_.fibChanges;
            ++stats.fibChanges;
            bump(obs_.fibChanges);
            FibUpdate update{prefix, hops.front(),
                             {hops.begin() + 1, hops.end()}};
            events_->onFibUpdate(update);
        }
        if (outcome.bestChanged) {
            for (Peer *peer : establishedPeers_)
                updateAdjOut(*peer, prefix, slot, &best, stats);
        }
    }
}

void
BgpSpeaker::updateAdjOut(Peer &peer, const net::Prefix &prefix,
                         Slot slot, const Candidate *best,
                         UpdateStats &stats)
{
    if (!peer.fsm.established())
        return;

    auto send_withdraw_if_advertised = [&]() {
        if (peer.ribOut.withdrawAt(slot)) {
            peer.pending.withdraw(prefix);
            ++stats.advertisedPrefixes;
        }
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

    // eBGP with an empty export policy is the hot path of every
    // benchmark scenario, and the export transform is a pure function
    // of the (interned) input attributes: memoise it per peer so a
    // full-table advertisement performs one transform per distinct
    // attribute set instead of one per prefix. The memo is keyed on
    // pointer identity, which only stays hot across messages and
    // decision runs because the interner canonicalises attributes.
    if (peer.externalSession && peer.config.exportPolicy.empty()) {
        if (peer.exportMemo.size() >= exportMemoCap)
            trimExportMemo(peer);
        auto [memo, missed] =
            peer.exportMemo.try_emplace(best->attributes);
        if (missed)
            memo->second = ebgpExport(peer, best->attributes);
        if (!memo->second) {
            // Sender-side loop avoidance suppressed the route.
            send_withdraw_if_advertised();
            return;
        }
        if (peer.ribOut.advertiseAt(slot, memo->second)) {
            peer.pending.announce(prefix, memo->second);
            ++stats.advertisedPrefixes;
        }
        return;
    }

    if (!peer.config.exportPolicy.empty())
        bump(obs_.policyEvals);
    PathAttributesPtr exported = peer.config.exportPolicy.apply(
        prefix, best->attributes, config_.localAs);
    if (!exported) {
        bump(obs_.policyRejects);
        send_withdraw_if_advertised();
        return;
    }

    if (peer.externalSession) {
        exported = ebgpExport(peer, exported);
        if (!exported) {
            // Sender-side loop avoidance: the peer would discard a
            // path containing its own AS, so don't send one.
            send_withdraw_if_advertised();
            return;
        }
    } else if (reflecting) {
        // RFC 4456 section 8: stamp the originator and prepend our
        // cluster id; everything else is reflected unchanged.
        PathAttributes out = *exported;
        if (!out.originatorId)
            out.originatorId = best->peerRouterId;
        out.clusterList.insert(
            out.clusterList.begin(),
            config_.clusterId ? config_.clusterId : config_.routerId);
        exported = makeAttributes(std::move(out));
    }

    if (peer.ribOut.advertiseAt(slot, exported)) {
        peer.pending.announce(prefix, exported);
        ++stats.advertisedPrefixes;
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

void
BgpSpeaker::trimExportMemo(Peer &peer)
{
    // First reclaim entries whose input attribute set died everywhere
    // else — the memo's own key holds the sole remaining strong
    // reference. After table churn (withdraw waves, session resets)
    // this frees the garbage while every hot entry survives.
    for (auto it = peer.exportMemo.begin();
         it != peer.exportMemo.end();) {
        if (it->first.use_count() == 1)
            it = peer.exportMemo.erase(it);
        else
            ++it;
    }
    // Then shed arbitrary entries down to half the cap. Unlike the
    // wholesale flush this replaces, a workload with more distinct
    // attribute sets than the cap keeps half the memo hot instead of
    // rebuilding from empty, and the next trim is at least cap/2
    // insertions away, keeping the per-announce cost amortised O(1).
    while (peer.exportMemo.size() > exportMemoCap / 2)
        peer.exportMemo.erase(peer.exportMemo.begin());
}

PathAttributesPtr
BgpSpeaker::ebgpExport(const Peer &peer,
                       const PathAttributesPtr &attrs) const
{
    // Sender-side loop avoidance: the peer would discard a path
    // containing its own AS (RFC 4271 9.1.2).
    if (attrs->asPath.contains(peer.config.asn))
        return nullptr;
    PathAttributes out = *attrs;
    out.asPath.prepend(config_.localAs);
    out.nextHop = config_.localAddress;
    // LOCAL_PREF is never sent on eBGP sessions (RFC 4271 5.1.5),
    // and the reflection attributes are non-transitive.
    out.localPref.reset();
    out.originatorId.reset();
    out.clusterList.clear();
    return makeAttributes(std::move(out));
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
    UpdateStats stats;
    locRib_.forEachWithSlot([&](const net::Prefix &prefix, Slot slot,
                                const LocRib::Entry &entry) {
        updateAdjOut(peer, prefix, slot, &entry.best, stats);
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
    peer.exportMemo.clear();
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
