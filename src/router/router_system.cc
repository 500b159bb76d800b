#include "router/router_system.hh"

#include <algorithm>
#include <cmath>

#include "net/logging.hh"
#include "net/packet.hh"

namespace bgpbench::router
{

namespace
{

/** Scheduling quantum: traffic arrivals and CPU time allocation. */
constexpr sim::SimTime quantumNs = sim::nsFromMs(1);
/** CPU-load / forwarding-rate sampling interval. */
constexpr double statsIntervalSec = 1.0;

bgp::SpeakerConfig
speakerConfigFor(const RouterConfig &config)
{
    // The speaker proposes the protocol's default hold time.
    bgp::SpeakerConfig sc;
    sc.localAs = config.localAs;
    sc.routerId = config.routerId;
    sc.localAddress = config.address;
    sc.damping = config.damping;
    return sc;
}

} // namespace

RouterSystem::RouterSystem(sim::Simulator *sim, SystemProfile profile,
                           RouterConfig config)
    : sim_(sim), profile_(std::move(profile)),
      config_(std::move(config)), cpu_(profile_.cpu),
      speaker_(speakerConfigFor(config_), this), engine_(&fib_),
      fwdBytes_(statsIntervalSec, "forwarded-bytes"),
      alive_(std::make_shared<bool>(true))
{
    panicIf(sim_ == nullptr, "router requires a simulator");
    if (config_.peers.empty())
        fatal("router configured with no BGP peers");

    // Kernel-context processes, pinned to CPU 0 as on an
    // unconfigured Linux 2.6 (no irqbalance).
    irqProc_ = std::make_unique<sim::SimProcess>(sim::SimProcess::Config{
        "interrupts", sim::priority::interrupt, 0});
    kernelProc_ =
        std::make_unique<sim::SimProcess>(sim::SimProcess::Config{
            "system", sim::priority::kernel, 0});
    cpu_.addProcess(irqProc_.get());
    cpu_.addProcess(kernelProc_.get());

    auto add_control = [this](const std::string &name) {
        controlProcs_.push_back(std::make_unique<sim::SimProcess>(
            sim::SimProcess::Config{name, sim::priority::user, -1}));
        cpu_.addProcess(controlProcs_.back().get());
        return controlProcs_.back().get();
    };

    if (profile_.monolithicControl) {
        sim::SimProcess *ios = add_control("ios");
        bgpProc_ = ios;
        ribProc_ = ios;
        feaProc_ = ios;
        rtrmgrProc_ = ios;
        policyProc_ = ios;
    } else {
        bgpProc_ = add_control("xorp_bgp");
        feaProc_ = add_control("xorp_fea");
        ribProc_ = add_control("xorp_rib");
        policyProc_ = add_control("xorp_policy");
        rtrmgrProc_ = add_control("xorp_rtrmgr");
    }

    // Register peers with the protocol engine and create ports.
    ports_.resize(config_.peers.size());
    for (size_t i = 0; i < config_.peers.size(); ++i) {
        speaker_.addPeer(config_.peers[i]);
        ports_[i].peerId = config_.peers[i].id;
        ports_[i].importPolicyEntries =
            config_.peers[i].importPolicy.size();
        ports_[i].exportPolicyEntries =
            config_.peers[i].exportPolicy.size();
    }

    // Track CPU load of every process ("top" style, % of one core).
    loadTracker_ = std::make_unique<sim::CpuLoadTracker>(
        profile_.cpu.cyclesPerSecond, statsIntervalSec);
    for (auto &proc : controlProcs_)
        loadTracker_->track(proc.get());
    loadTracker_->track(irqProc_.get());
    loadTracker_->track(kernelProc_.get());
}

RouterSystem::~RouterSystem()
{
    running_ = false;
    *alive_ = false;
}

void
RouterSystem::start()
{
    panicIf(running_, "router started twice");
    running_ = true;

    // Scheduling quantum: traffic arrivals + CPU time allocation.
    sim_->scheduleEvery(quantumNs, [this, alive = alive_]() {
        if (!*alive || !running_)
            return false;
        quantumTick();
        return true;
    });

    // Session timers: a real stack wakes up to emit KEEPALIVEs and
    // check hold timers; the work is charged to the BGP process.
    sim_->scheduleEvery(sim::nsFromSec(1.0), [this, alive = alive_]() {
        if (!*alive || !running_)
            return false;
        bgpProc_->post(uint64_t(profile_.costs.sessionPollCycles),
                       [this]() {
                           speaker_.pollTimers(sim_->now());
                       });
        return true;
    });

    // Background management processes (xorp_rtrmgr, xorp_policy).
    const auto &costs = profile_.costs;
    if (costs.rtrmgrCyclesPerSecond > 0 ||
        costs.policyCyclesPerSecond > 0) {
        sim_->scheduleEvery(sim::nsFromMs(100), [this, alive = alive_]() {
            if (!*alive || !running_)
                return false;
            const auto &c = profile_.costs;
            if (c.rtrmgrCyclesPerSecond > 0) {
                rtrmgrProc_->post(
                    uint64_t(c.rtrmgrCyclesPerSecond * 0.1));
            }
            if (c.policyCyclesPerSecond > 0) {
                policyProc_->post(
                    uint64_t(c.policyCyclesPerSecond * 0.1));
            }
            return true;
        });
    }

    // Instrumentation sampling.
    sim_->scheduleEvery(sim::nsFromSec(statsIntervalSec),
                        [this, alive = alive_]() {
                            if (!*alive || !running_)
                                return false;
                            loadTracker_->sample(sim_->now());
                            return true;
                        });
}

void
RouterSystem::shutdown()
{
    running_ = false;
}

void
RouterSystem::connectPeer(size_t port)
{
    panicIf(port >= ports_.size(), "bad port index");
    // A new connection is a new byte stream.
    ports_[port].decoder = bgp::StreamDecoder{};
    bgp::PeerId peer = ports_[port].peerId;
    speaker_.startPeer(peer, sim_->now());
    speaker_.tcpEstablished(peer, sim_->now());
}

size_t
RouterSystem::rxSpace(size_t port) const
{
    panicIf(port >= ports_.size(), "bad port index");
    size_t used = ports_[port].queuedBytes;
    return used >= profile_.rxBufferBytes
               ? 0
               : profile_.rxBufferBytes - used;
}

void
RouterSystem::deliverToPort(size_t port, net::WireSegmentPtr segment)
{
    panicIf(port >= ports_.size(), "bad port index");
    Port &p = ports_[port];

    // NIC interrupt for the control-plane segment.
    if (profile_.costs.irqPerPacket > 0 && !profile_.separateDataPlane)
        irqProc_->post(uint64_t(profile_.costs.irqPerPacket));

    p.decoder.feed(std::move(segment));

    bgp::DecodeError error;
    while (true) {
        size_t pre = p.decoder.bufferedBytes();
        auto msg = p.decoder.next(error);
        if (!msg) {
            if (error)
                speaker_.streamFailed(p.peerId, error, sim_->now());
            break;
        }
        size_t consumed = pre - p.decoder.bufferedBytes();
        inbound_.push_back(
            InboundMessage{port, std::move(*msg), consumed});
        p.queuedBytes += consumed;
        ++pendingControlWork_;
    }

    maybeDispatch();
}

void
RouterSystem::setPortTransmitHandler(
    size_t port, std::function<void(net::WireSegmentPtr)> handler)
{
    panicIf(port >= ports_.size(), "bad port index");
    ports_[port].transmitHandler = std::move(handler);
}

void
RouterSystem::setPortDrainHandler(size_t port,
                                  std::function<void()> handler)
{
    panicIf(port >= ports_.size(), "bad port index");
    ports_[port].drainHandler = std::move(handler);
}

void
RouterSystem::setCrossTraffic(workload::CrossTrafficConfig config)
{
    crossTraffic_ = std::move(config);
    arrivalCarry_ = 0.0;
    nextDestination_ = 0;
}

void
RouterSystem::installStaticRoute(const net::Prefix &prefix,
                                 net::Ipv4Address next_hop,
                                 uint32_t interface)
{
    fib_.install(prefix, fib::FibEntry{next_hop, interface, {}});
}

bool
RouterSystem::controlDrained() const
{
    return pendingControlWork_ == 0 && inbound_.empty() &&
           !dispatchBusy_;
}

void
RouterSystem::postCounted(sim::SimProcess *proc, double cycles,
                          std::function<void()> apply)
{
    ++pendingControlWork_;
    proc->post(uint64_t(std::max(0.0, cycles)),
               [this, apply = std::move(apply)]() {
                   if (apply)
                       apply();
                   --pendingControlWork_;
               });
}

double
RouterSystem::messageCost(const InboundMessage &inbound) const
{
    const CostProfile &c = profile_.costs;
    double cost =
        c.msgParse + c.msgPerByte * double(inbound.wireBytes);
    if (const auto *update =
            std::get_if<bgp::UpdateMessage>(&inbound.msg)) {
        cost += c.announcePrefix * double(update->nlri.size());
        cost += c.withdrawPrefix *
                double(update->withdrawnRoutes.size());
        // Import route-map walk, charged per announced prefix.
        cost += c.policyPerEntry *
                double(ports_[inbound.port].importPolicyEntries) *
                double(update->nlri.size());
    }
    return cost;
}

void
RouterSystem::maybeDispatch()
{
    if (dispatchBusy_ || inbound_.empty())
        return;
    if (sim_->now() < gateReady_)
        return;

    InboundMessage inbound = std::move(inbound_.front());
    inbound_.pop_front();
    dispatchBusy_ = true;

    double cost = messageCost(inbound);
    bgpProc_->post(
        uint64_t(cost), [this, inbound = std::move(inbound)]() {
            Port &port = ports_[inbound.port];

            fibBatch_.clear();
            lastLocRibChanges_ = 0;
            speaker_.handleMessage(port.peerId, inbound.msg,
                                   sim_->now());

            bool defer_gate = false;
            if (!fibBatch_.empty() || lastLocRibChanges_ > 0) {
                // On monolithic systems the gate restarts only once
                // the control process has finished the message's
                // route writes too (postFibPipeline arms it).
                defer_gate = profile_.monolithicControl &&
                             !fibBatch_.empty();
                postFibPipeline(std::move(fibBatch_),
                                lastLocRibChanges_);
                fibBatch_.clear();
            }

            port.queuedBytes -= std::min(port.queuedBytes,
                                         inbound.wireBytes);
            dispatchBusy_ = false;
            // A deferred gate blocks dispatch entirely until the
            // route writes complete and arm the real deadline.
            gateReady_ = defer_gate
                             ? sim::simTimeNever
                             : sim_->now() + profile_.costs.msgGateNs;
            --pendingControlWork_;

            if (port.drainHandler)
                port.drainHandler();
            maybeDispatch();
        });
}

void
RouterSystem::onTransmit(bgp::PeerId to, bgp::MessageType type,
                         net::WireSegmentPtr wire, size_t transactions)
{
    (void)type;
    const CostProfile &c = profile_.costs;
    double cost =
        c.msgSend + c.advertisePrefix * double(transactions);

    // Find the port carrying this peer.
    size_t port = ports_.size();
    for (size_t i = 0; i < ports_.size(); ++i) {
        if (ports_[i].peerId == to) {
            port = i;
            break;
        }
    }
    panicIf(port == ports_.size(), "transmit to unknown peer");
    // Export route-map walk, charged per advertised prefix.
    cost += c.policyPerEntry *
            double(ports_[port].exportPolicyEntries) *
            double(transactions);

    postCounted(bgpProc_, cost,
                [this, port, wire = std::move(wire)]() mutable {
                    if (ports_[port].transmitHandler)
                        ports_[port].transmitHandler(std::move(wire));
                });
}

void
RouterSystem::onFibUpdate(const bgp::FibUpdate &update)
{
    fibBatch_.push_back(update);
}

void
RouterSystem::onUpdateProcessed(bgp::PeerId from,
                                const bgp::UpdateStats &stats)
{
    (void)from;
    lastLocRibChanges_ += stats.locRibChanges;
}

void
RouterSystem::postFibPipeline(std::vector<bgp::FibUpdate> batch,
                              size_t loc_rib_changes)
{
    const CostProfile &c = profile_.costs;

    // Classify changes against the FIB as it stands; between phases
    // the pipeline is drained, so this matches apply-time reality.
    double kernel_cycles = 0;
    size_t bulk_changes = 0;
    size_t replacements = 0;
    for (const auto &update : batch) {
        bool exists = fib_.exact(update.prefix) != nullptr;
        if (update.isWithdraw()) {
            kernel_cycles += c.kernelRouteRemove;
            ++bulk_changes;
        } else if (exists) {
            kernel_cycles += c.kernelRouteReplace;
            ++replacements;
        } else {
            kernel_cycles += c.kernelRouteInstall;
            ++bulk_changes;
        }
    }

    // Bulk installs/removals batch onto IPC messages; replacements
    // flow as individual change notifications (see cost_model.hh).
    size_t ipc_messages = replacements;
    if (bulk_changes > 0) {
        ipc_messages += (bulk_changes + c.ipcBatchMax - 1) /
                        c.ipcBatchMax;
    }

    double rib_cycles = c.ribChange * double(loc_rib_changes) +
                        c.ipcPerMessage * double(ipc_messages);
    double fea_cycles = c.feaChange * double(batch.size()) +
                        c.ipcPerMessage * double(ipc_messages);

    // On the monolithic commercial router the routing table is
    // maintained by the same IOS process that parses updates, so
    // route writes serialise with message processing instead of
    // overlapping the per-message gate.
    sim::SimProcess *route_proc = profile_.monolithicControl
                                      ? bgpProc_
                                      : kernelProc_.get();

    postCounted(
        ribProc_, rib_cycles,
        [this, batch = std::move(batch), fea_cycles, kernel_cycles,
         route_proc]() mutable {
            postCounted(
                feaProc_, fea_cycles,
                [this, batch = std::move(batch), kernel_cycles,
                 route_proc]() mutable {
                    postCounted(
                        route_proc, kernel_cycles,
                        [this, batch = std::move(batch)]() {
                            for (const auto &update : batch) {
                                if (update.isWithdraw()) {
                                    fib_.remove(update.prefix);
                                } else {
                                    fib::FibEntry entry{
                                        *update.nextHop, 1,
                                        update.extraHops};
                                    fib_.install(update.prefix,
                                                 std::move(entry));
                                }
                                ++controlPlane_.fibChangesApplied;
                            }
                            if (profile_.monolithicControl) {
                                gateReady_ =
                                    sim_->now() +
                                    profile_.costs.msgGateNs;
                                maybeDispatch();
                            }
                        });
                });
        });
}

void
RouterSystem::quantumTick()
{
    double quantum_sec = sim::toSeconds(quantumNs);
    crossTrafficTick(quantum_sec);
    maybeDispatch();
    cpu_.step(quantumNs);
}

void
RouterSystem::crossTrafficTick(double quantum_sec)
{
    double pps = crossTraffic_.packetsPerSecond();
    if (pps <= 0)
        return;

    const CostProfile &c = profile_.costs;
    double t = sim::toSeconds(sim_->now());

    double offered = pps * quantum_sec + arrivalCarry_;
    auto n = uint64_t(offered);
    arrivalCarry_ = offered - double(n);
    if (n == 0)
        return;
    dataPlane_.offeredPackets += n;

    // The bus/port limit caps what ever reaches the forwarding path.
    double bus_pps = profile_.busLimitMbps * 1e6 /
                     (8.0 * double(crossTraffic_.packetBytes));
    uint64_t accepted = n;
    if (pps > bus_pps) {
        auto bus_drop = uint64_t(std::round(
            double(n) * (1.0 - bus_pps / pps)));
        bus_drop = std::min(bus_drop, n);
        accepted -= bus_drop;
        dataPlane_.busDrops += bus_drop;
    }
    if (accepted == 0)
        return;

    auto forward_batch = [this, t](uint64_t count) {
        // Materialise a small sample of real packets so the actual
        // RFC-1812 engine (checksum, TTL, trie lookup) is exercised;
        // the rest of the batch is accounted statistically.
        uint64_t sample = std::min<uint64_t>(count, 2);
        int visited_total = 0;
        bool routable = true;
        for (uint64_t s = 0; s < sample; ++s) {
            net::Ipv4Address dest =
                crossTraffic_.destinations.empty()
                    ? net::Ipv4Address(198, 18, 0, 1)
                    : crossTraffic_.destinations
                          [nextDestination_++ %
                           crossTraffic_.destinations.size()];
            net::DataPacket pkt = net::makeDataPacket(
                crossTraffic_.source, dest,
                crossTraffic_.packetBytes);
            auto result = engine_.process(pkt);
            visited_total += result.lookupNodesVisited;
            routable = routable && result.forwarded;
        }
        if (sample > 0)
            lastAvgLookupNodes_ =
                double(visited_total) / double(sample);

        if (!routable) {
            dataPlane_.queueDrops += count;
            return;
        }
        dataPlane_.forwardedPackets += count;
        uint64_t bytes = count * crossTraffic_.packetBytes;
        dataPlane_.forwardedBytes += bytes;
        fwdBytes_.add(t, double(bytes));
    };

    if (profile_.separateDataPlane) {
        // Dedicated packet processors: zero control-CPU cost.
        forward_batch(accepted);
        return;
    }

    // Receive-queue overflow: drop when the kernel is too far behind.
    double backlog_ns = double(kernelProc_->backlogCycles()) /
                        profile_.cpu.cyclesPerSecond * 1e9;
    if (backlog_ns > double(c.queueLimitNs)) {
        dataPlane_.queueDrops += accepted;
        // Interrupts still fire for dropped packets.
        irqProc_->post(
            uint64_t(c.irqPerPacket * double(accepted)));
        return;
    }

    irqProc_->post(uint64_t(c.irqPerPacket * double(accepted)));

    double fwd_cycles =
        double(accepted) *
        (c.forwardPerPacket + c.lookupPerNode * lastAvgLookupNodes_);
    kernelProc_->post(uint64_t(fwd_cycles),
                      [forward_batch, accepted]() {
                          forward_batch(accepted);
                      });
}

} // namespace bgpbench::router
