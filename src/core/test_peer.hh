/**
 * @file
 * Scripted BGP test speaker (the benchmark's "Speaker 1"/"Speaker 2").
 *
 * The speakers surrounding the router under test are measurement
 * harness, not subjects: they run at zero simulated cost (the paper's
 * speakers were far faster than any router tested) but speak real
 * BGP-4 on the wire — OPEN/KEEPALIVE handshake, hold-timer keepalives,
 * and pre-built UPDATE streams. Sending respects the router's receive
 * buffer, which models the TCP backpressure that lets a slow router
 * pace a fast sender.
 */

#ifndef BGPBENCH_CORE_TEST_PEER_HH
#define BGPBENCH_CORE_TEST_PEER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "bgp/message.hh"
#include "bgp/types.hh"
#include "net/ipv4_address.hh"
#include "router/router_system.hh"
#include "sim/event_queue.hh"
#include "workload/update_stream.hh"

namespace bgpbench::core
{

/** Test speaker identity. */
struct TestPeerConfig
{
    bgp::AsNumber asn = 0;
    bgp::RouterId routerId = 0;
    net::Ipv4Address address;
};

/** What the test peer has received from the router under test. */
struct TestPeerCounters
{
    uint64_t updatesReceived = 0;
    uint64_t announcementsReceived = 0;
    uint64_t withdrawalsReceived = 0;
    uint64_t keepalivesReceived = 0;
    uint64_t segmentsSent = 0;
};

/**
 * One scripted speaker attached to a router port. Construct, then
 * connect(); once established() the queued stream flows under flow
 * control.
 */
class TestPeer
{
  public:
    /**
     * @param sim Simulation clock/event source.
     * @param config Speaker identity.
     * @param router The router under test; must outlive the peer.
     * @param port The router port this peer attaches to.
     */
    TestPeer(sim::Simulator *sim, TestPeerConfig config,
             router::RouterSystem *router, size_t port);
    ~TestPeer();

    TestPeer(const TestPeer &) = delete;
    TestPeer &operator=(const TestPeer &) = delete;

    /** Bring the transport up and run the OPEN exchange. */
    void connect();

    /** True once the session has reached Established on our side. */
    bool established() const { return established_; }

    /** The router port this peer attaches to. */
    size_t port() const { return port_; }

    /** Queue packets to send (flows once established). */
    void enqueueStream(std::vector<workload::StreamPacket> packets);

    /** Ask the router to re-send its table (RFC 2918). */
    void sendRouteRefresh();

    /** True when every queued packet has been handed to the router. */
    bool
    sendComplete() const
    {
        return sendQueue_.empty();
    }

    /** Packets still waiting for receive-buffer space. */
    size_t pendingPackets() const { return sendQueue_.size(); }

    const TestPeerCounters &counters() const { return counters_; }

  private:
    /** Push queued packets while the router has buffer space. */
    void pump();

    /** Handle a segment transmitted by the router. */
    void receive(net::WireSegmentPtr segment);

    /** Send one wire segment into the router port (assumes space). */
    void sendSegment(net::WireSegmentPtr segment);

    sim::Simulator *sim_;
    TestPeerConfig config_;
    router::RouterSystem *router_;
    size_t port_;

    /** Guards periodic events against outliving the peer. */
    std::shared_ptr<bool> alive_;

    bgp::StreamDecoder decoder_;
    bool connected_ = false;
    bool established_ = false;
    std::deque<workload::StreamPacket> sendQueue_;
    TestPeerCounters counters_;
};

} // namespace bgpbench::core

#endif // BGPBENCH_CORE_TEST_PEER_HH
