/**
 * @file
 * Per-peer BGP session finite state machine (RFC 4271 section 8).
 *
 * The FSM is transport-agnostic: the owner reports TCP-level events
 * (established / closed) and delivers decoded messages; the FSM
 * returns the messages to transmit and exposes its state. Timers are
 * driven by an explicit clock parameter (nanoseconds) so the FSM runs
 * identically under the discrete-event simulator and in standalone
 * library use.
 */

#ifndef BGPBENCH_BGP_SESSION_HH
#define BGPBENCH_BGP_SESSION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/message.hh"
#include "bgp/types.hh"

namespace bgpbench::bgp
{

/** Session FSM states (RFC 4271 section 8.2.2). */
enum class SessionState : uint8_t
{
    Idle,
    Connect,
    Active,
    OpenSent,
    OpenConfirm,
    Established,
};

/**
 * Human-readable state name as a static string (trace events store
 * the pointer without copying).
 */
const char *sessionStateName(SessionState state);

/** Human-readable state name. */
std::string toString(SessionState state);

/** Static configuration of one session. */
struct SessionConfig
{
    AsNumber localAs = 0;
    RouterId localId = 0;
    /** Hold time we propose in our OPEN (seconds; 0 disables). */
    uint16_t holdTimeSec = proto::defaultHoldTimeSec;
    /** Peer AS we expect; 0 accepts any (RFC 4271 6.2 Bad Peer AS). */
    AsNumber expectedPeerAs = 0;
};

/**
 * The session FSM. All inputs take the current time in nanoseconds;
 * all outputs are appended to the caller-supplied transmit list.
 */
class SessionFsm
{
  public:
    using TimeNs = uint64_t;

    explicit SessionFsm(SessionConfig config)
        : config_(config)
    {}

    SessionState state() const { return state_; }
    bool established() const
    {
        return state_ == SessionState::Established;
    }

    /** Negotiated hold time (valid once >= OpenConfirm). */
    uint16_t negotiatedHoldTimeSec() const { return negotiatedHoldSec_; }

    /** Peer facts learned from its OPEN. */
    AsNumber peerAs() const { return peerAs_; }
    RouterId peerRouterId() const { return peerRouterId_; }

    /** Operator start: begin connecting. */
    void start(TimeNs now);

    /** Operator stop: send CEASE if up and go Idle. */
    void stop(TimeNs now, std::vector<Message> &tx);

    /** Transport reports the TCP connection came up. */
    void tcpEstablished(TimeNs now, std::vector<Message> &tx);

    /** Transport reports the TCP connection dropped. */
    void tcpClosed(TimeNs now);

    /**
     * The peer's byte stream failed to decode (RFC 4271 section 6):
     * tear the session down with the decoder's error code. Like every
     * teardown this sends a NOTIFICATION only from OpenSent,
     * OpenConfirm or Established.
     */
    void streamFailed(const DecodeError &error, std::vector<Message> &tx);

    /**
     * Deliver a decoded message from the peer.
     *
     * @param msg The message.
     * @param now Current time.
     * @param tx Messages to transmit are appended here.
     * @return True if the session survives; false if it was torn down
     *         (a NOTIFICATION may have been appended to @p tx).
     */
    bool handleMessage(const Message &msg, TimeNs now,
                       std::vector<Message> &tx);

    /**
     * Drive timers: emits KEEPALIVEs when due and tears the session
     * down with a NOTIFICATION if the peer's hold timer expired.
     *
     * @return True if the session is still up (or coming up).
     */
    bool poll(TimeNs now, std::vector<Message> &tx);

    /** Earliest time poll() has work to do; TimeNs max when idle. */
    TimeNs nextTimerDeadline() const;

    /** Count of state transitions, for tests and traces. */
    uint64_t transitionCount() const { return transitions_; }

  private:
    static constexpr TimeNs nsPerSec = 1'000'000'000ull;

    void moveTo(SessionState next);
    void resetTimers(TimeNs now);
    void teardown(ErrorCode code, uint8_t subcode,
                  std::vector<Message> &tx);

    SessionConfig config_;
    SessionState state_ = SessionState::Idle;
    uint16_t negotiatedHoldSec_ = 0;
    AsNumber peerAs_ = 0;
    RouterId peerRouterId_ = 0;
    TimeNs holdDeadline_ = ~TimeNs(0);
    TimeNs nextKeepalive_ = ~TimeNs(0);
    uint64_t transitions_ = 0;
};

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_SESSION_HH
