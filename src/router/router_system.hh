/**
 * @file
 * The simulated router under test.
 *
 * One class models all four of the paper's systems; the differences —
 * uni-core vs dual-core, separate packet processors, monolithic
 * control — come entirely from the SystemProfile:
 *
 *   - A real BgpSpeaker performs all protocol work; every operation
 *     is paced by jobs on simulated processes (the XORP suite:
 *     xorp_bgp, xorp_policy, xorp_rib, xorp_fea, xorp_rtrmgr — or a
 *     single monolithic process for the commercial router).
 *   - The kernel data path ("interrupts" + "system" processes, pinned
 *     to CPU 0) forwards cross-traffic with the real RFC-1812 engine
 *     and applies FIB writes, so control and data plane contend for
 *     the CPU exactly as the paper describes — unless the profile
 *     declares a separate data plane (the network processor).
 *   - BGP sessions terminate at bounded receive buffers, providing
 *     the TCP backpressure that lets a slow router pace fast test
 *     speakers.
 */

#ifndef BGPBENCH_ROUTER_ROUTER_SYSTEM_HH
#define BGPBENCH_ROUTER_ROUTER_SYSTEM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "bgp/speaker.hh"
#include "fib/forwarding_engine.hh"
#include "fib/forwarding_table.hh"
#include "router/system_profiles.hh"
#include "sim/cpu.hh"
#include "sim/event_queue.hh"
#include "sim/load_tracker.hh"
#include "sim/process.hh"
#include "stats/time_series.hh"
#include "workload/cross_traffic.hh"

namespace bgpbench::router
{

/** Router-local configuration (independent of the platform). */
struct RouterConfig
{
    bgp::AsNumber localAs = 65000;
    bgp::RouterId routerId = 0x0a000001;
    net::Ipv4Address address = net::Ipv4Address(10, 0, 0, 1);
    /** BGP neighbours; peer ids double as port indices. */
    std::vector<bgp::PeerConfig> peers;
    /** Route flap damping for the router's speaker (RFC 2439). */
    bgp::DampingConfig damping;
};

/** Data-plane counters. */
struct DataPlaneCounters
{
    uint64_t offeredPackets = 0;
    uint64_t forwardedPackets = 0;
    uint64_t forwardedBytes = 0;
    /** Dropped because the offered rate exceeds the bus/port limit. */
    uint64_t busDrops = 0;
    /** Dropped because the kernel input queue overflowed. */
    uint64_t queueDrops = 0;
};

/** Control-plane accounting beyond the speaker's own counters. */
struct ControlPlaneCounters
{
    uint64_t fibChangesApplied = 0;
};

/**
 * The router under test. See file comment.
 */
class RouterSystem : private bgp::SpeakerEvents
{
  public:
    /**
     * @param sim The simulation this router lives in; must outlive
     *        the router.
     * @param profile Platform description (one of the four systems).
     * @param config Router-local configuration.
     */
    RouterSystem(sim::Simulator *sim, SystemProfile profile,
                 RouterConfig config);
    ~RouterSystem() override;

    RouterSystem(const RouterSystem &) = delete;
    RouterSystem &operator=(const RouterSystem &) = delete;

    /** Begin operation: schedules the quantum and sampling events. */
    void start();

    /** Stop scheduling further events (the simulation winds down). */
    void shutdown();

    /** @name Control-plane ports (one per configured peer)
     *  @{
     */
    /** Report TCP establishment on @p port: the OPEN exchange runs. */
    void connectPeer(size_t port);

    /** Free space in the port's receive buffer. */
    size_t rxSpace(size_t port) const;

    /** Deliver one TCP segment from the peer (must fit rxSpace). */
    void deliverToPort(size_t port, net::WireSegmentPtr segment);

    /**
     * Install the handler receiving segments the router sends. The
     * segment is shared and immutable — it may simultaneously sit on
     * other peers' queues.
     */
    void setPortTransmitHandler(
        size_t port,
        std::function<void(net::WireSegmentPtr)> handler);

    /** Install the handler called when receive-buffer space frees. */
    void setPortDrainHandler(size_t port, std::function<void()> handler);
    /** @} */

    /** @name Data plane
     *  @{
     */
    /** Set the offered cross-traffic load (replaces any previous). */
    void setCrossTraffic(workload::CrossTrafficConfig config);

    /**
     * Install a static route (as the benchmark testbed does for the
     * cross-traffic path, so forwarding does not depend on BGP
     * convergence).
     */
    void installStaticRoute(const net::Prefix &prefix,
                            net::Ipv4Address next_hop,
                            uint32_t interface);
    /** @} */

    /**
     * True when no control-plane work is queued or in flight: all
     * received updates fully processed through to the FIB. Periodic
     * maintenance (rtrmgr, timers) is ignored.
     */
    bool controlDrained() const;

    /** @name Introspection
     *  @{
     */
    bgp::BgpSpeaker &speaker() { return speaker_; }
    const bgp::BgpSpeaker &speaker() const { return speaker_; }
    fib::ForwardingTable &fib() { return fib_; }
    const fib::ForwardingTable &fib() const { return fib_; }
    const SystemProfile &profile() const { return profile_; }
    const DataPlaneCounters &dataPlane() const { return dataPlane_; }
    const ControlPlaneCounters &controlPlane() const
    {
        return controlPlane_;
    }
    sim::CpuLoadTracker &loadTracker() { return *loadTracker_; }
    /** Forwarded bytes per stats bucket. */
    const stats::TimeSeries &forwardingBytesSeries() const
    {
        return fwdBytes_;
    }
    /** @} */

  private:
    struct Port
    {
        bgp::PeerId peerId = 0;
        bgp::StreamDecoder decoder;
        size_t queuedBytes = 0;
        /** Route-map entries on this session (policy cost model). */
        size_t importPolicyEntries = 0;
        size_t exportPolicyEntries = 0;
        std::function<void(net::WireSegmentPtr)> transmitHandler;
        std::function<void()> drainHandler;
    };

    struct InboundMessage
    {
        size_t port;
        bgp::Message msg;
        size_t wireBytes;
    };

    // SpeakerEvents implementation.
    void onTransmit(bgp::PeerId to, bgp::MessageType type,
                    net::WireSegmentPtr wire,
                    size_t transactions) override;
    void onFibUpdate(const bgp::FibUpdate &update) override;
    void onUpdateProcessed(bgp::PeerId from,
                           const bgp::UpdateStats &stats) override;

    /** Post a job that counts toward controlDrained(). */
    void postCounted(sim::SimProcess *proc, double cycles,
                     std::function<void()> apply);

    /** Dispatch the next queued inbound message if allowed. */
    void maybeDispatch();

    /** Per-message bgp-stage cost. */
    double messageCost(const InboundMessage &inbound) const;

    /** Launch the rib->fea->kernel pipeline for collected changes. */
    void postFibPipeline(std::vector<bgp::FibUpdate> batch,
                         size_t loc_rib_changes);

    /** One scheduling quantum: traffic arrivals + CPU step. */
    void quantumTick();

    /** Handle this quantum's share of cross-traffic. */
    void crossTrafficTick(double quantum_sec);

    sim::Simulator *sim_;
    SystemProfile profile_;
    RouterConfig config_;

    // Simulated processes.
    std::unique_ptr<sim::SimProcess> irqProc_;
    std::unique_ptr<sim::SimProcess> kernelProc_;
    std::vector<std::unique_ptr<sim::SimProcess>> controlProcs_;
    sim::SimProcess *bgpProc_ = nullptr;
    sim::SimProcess *ribProc_ = nullptr;
    sim::SimProcess *feaProc_ = nullptr;
    sim::SimProcess *rtrmgrProc_ = nullptr;
    sim::SimProcess *policyProc_ = nullptr;
    sim::CpuModel cpu_;

    // Protocol engine and forwarding state.
    bgp::BgpSpeaker speaker_;
    fib::ForwardingTable fib_;
    fib::ForwardingEngine engine_;

    // Inbound control path.
    std::vector<Port> ports_;
    std::deque<InboundMessage> inbound_;
    bool dispatchBusy_ = false;
    sim::SimTime gateReady_ = 0;
    uint64_t pendingControlWork_ = 0;

    // Event-collection state, valid during speaker calls.
    std::vector<bgp::FibUpdate> fibBatch_;
    size_t lastLocRibChanges_ = 0;

    // Data plane state.
    workload::CrossTrafficConfig crossTraffic_;
    double arrivalCarry_ = 0.0;
    double lastAvgLookupNodes_ = 24.0;
    size_t nextDestination_ = 0;

    // Instrumentation.
    std::unique_ptr<sim::CpuLoadTracker> loadTracker_;
    stats::TimeSeries fwdBytes_;
    DataPlaneCounters dataPlane_;
    ControlPlaneCounters controlPlane_;

    bool running_ = false;
    /** Guards periodic events against outliving the router. */
    std::shared_ptr<bool> alive_;
};

} // namespace bgpbench::router

#endif // BGPBENCH_ROUTER_ROUTER_SYSTEM_HH
