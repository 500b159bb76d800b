#include "core/test_peer.hh"

#include "net/logging.hh"

namespace bgpbench::core
{

namespace
{

/** Hold time the peer offers in its OPEN. */
constexpr uint16_t holdTimeSec = 180;
/** Interval between keepalives the peer emits once established. */
constexpr double keepaliveSec = 30.0;

} // namespace

TestPeer::TestPeer(sim::Simulator *sim, TestPeerConfig config,
                   router::RouterSystem *router, size_t port)
    : sim_(sim), config_(config), router_(router), port_(port),
      alive_(std::make_shared<bool>(true))
{
    panicIf(sim_ == nullptr || router_ == nullptr,
            "test peer requires a simulator and a router");

    router_->setPortTransmitHandler(
        port_, [this](net::WireSegmentPtr segment) {
            receive(std::move(segment));
        });
    router_->setPortDrainHandler(port_, [this]() { pump(); });
}

void
TestPeer::connect()
{
    panicIf(connected_, "test peer connected twice");
    connected_ = true;

    // Bring the router's side of the TCP connection up, then send our
    // OPEN (both sides open simultaneously, as BGP allows).
    router_->connectPeer(port_);

    bgp::OpenMessage open;
    open.myAs = config_.asn;
    open.holdTimeSec = holdTimeSec;
    open.bgpIdentifier = config_.routerId;
    sendSegment(bgp::encodeSegment(open));

    // Keepalives for the router's hold timer. The stream's UPDATEs
    // also refresh it, but quiet gaps (e.g. between phases) need
    // explicit keepalives.
    sim_->scheduleEvery(
        sim::nsFromSec(keepaliveSec),
        [this, alive = alive_]() {
            if (!*alive)
                return false;
            if (!established_)
                return true;
            sendSegment(bgp::encodeSegment(bgp::KeepaliveMessage{}));
            return true;
        });
}

TestPeer::~TestPeer()
{
    *alive_ = false;
}

void
TestPeer::sendRouteRefresh()
{
    sendSegment(bgp::encodeSegment(bgp::RouteRefreshMessage{}));
}

void
TestPeer::enqueueStream(std::vector<workload::StreamPacket> packets)
{
    for (auto &pkt : packets)
        sendQueue_.push_back(std::move(pkt));
    pump();
}

void
TestPeer::pump()
{
    if (!established_)
        return;
    while (!sendQueue_.empty() &&
           router_->rxSpace(port_) >= sendQueue_.front().wire->size()) {
        sendSegment(std::move(sendQueue_.front().wire));
        sendQueue_.pop_front();
    }
}

void
TestPeer::sendSegment(net::WireSegmentPtr segment)
{
    ++counters_.segmentsSent;
    router_->deliverToPort(port_, std::move(segment));
}

void
TestPeer::receive(net::WireSegmentPtr segment)
{
    decoder_.feed(std::move(segment));

    bgp::DecodeError error;
    while (auto msg = decoder_.next(error)) {
        switch (bgp::messageType(*msg)) {
          case bgp::MessageType::Open:
            // Acknowledge the router's OPEN.
            sendSegment(
                bgp::encodeSegment(bgp::KeepaliveMessage{}));
            break;

          case bgp::MessageType::Keepalive:
            ++counters_.keepalivesReceived;
            if (!established_) {
                established_ = true;
                pump();
            }
            break;

          case bgp::MessageType::Update: {
            const auto &update = std::get<bgp::UpdateMessage>(*msg);
            ++counters_.updatesReceived;
            counters_.announcementsReceived += update.nlri.size();
            counters_.withdrawalsReceived +=
                update.withdrawnRoutes.size();
            break;
          }

          case bgp::MessageType::Notification:
            ++counters_.notificationsReceived;
            established_ = false;
            break;

          case bgp::MessageType::RouteRefresh:
            ++counters_.refreshesReceived;
            break;
        }
    }
    if (error) {
        panic("router sent a malformed message to a test peer: " +
              error.detail);
    }
}

} // namespace bgpbench::core
