#include "bgp/session.hh"

#include <algorithm>

namespace bgpbench::bgp
{

const char *
sessionStateName(SessionState state)
{
    switch (state) {
      case SessionState::Idle:
        return "Idle";
      case SessionState::Connect:
        return "Connect";
      case SessionState::Active:
        return "Active";
      case SessionState::OpenSent:
        return "OpenSent";
      case SessionState::OpenConfirm:
        return "OpenConfirm";
      case SessionState::Established:
        return "Established";
    }
    return "?";
}

std::string
toString(SessionState state)
{
    return sessionStateName(state);
}

void
SessionFsm::moveTo(SessionState next)
{
    if (state_ != next) {
        state_ = next;
        ++transitions_;
    }
}

void
SessionFsm::resetTimers(TimeNs now)
{
    if (negotiatedHoldSec_ == 0) {
        holdDeadline_ = ~TimeNs(0);
        nextKeepalive_ = ~TimeNs(0);
        return;
    }
    holdDeadline_ = now + TimeNs(negotiatedHoldSec_) * nsPerSec;
    // RFC 4271 10: keepalive interval is one third of the hold time.
    nextKeepalive_ =
        now + TimeNs(negotiatedHoldSec_) * nsPerSec / 3;
}

void
SessionFsm::teardown(ErrorCode code, uint8_t subcode,
                     std::vector<Message> &tx)
{
    if (state_ == SessionState::OpenSent ||
        state_ == SessionState::OpenConfirm ||
        state_ == SessionState::Established) {
        tx.push_back(NotificationMessage{code, subcode, {}});
    }
    negotiatedHoldSec_ = 0;
    holdDeadline_ = ~TimeNs(0);
    nextKeepalive_ = ~TimeNs(0);
    moveTo(SessionState::Idle);
}

void
SessionFsm::start(TimeNs)
{
    if (state_ == SessionState::Idle)
        moveTo(SessionState::Connect);
}

void
SessionFsm::stop(TimeNs, std::vector<Message> &tx)
{
    teardown(ErrorCode::Cease, 0, tx);
}

void
SessionFsm::tcpEstablished(TimeNs, std::vector<Message> &tx)
{
    if (state_ != SessionState::Connect &&
        state_ != SessionState::Active) {
        return;
    }
    OpenMessage open;
    open.myAs = config_.localAs;
    open.holdTimeSec = config_.holdTimeSec;
    open.bgpIdentifier = config_.localId;
    tx.push_back(std::move(open));
    moveTo(SessionState::OpenSent);
}

void
SessionFsm::tcpClosed(TimeNs)
{
    negotiatedHoldSec_ = 0;
    holdDeadline_ = ~TimeNs(0);
    nextKeepalive_ = ~TimeNs(0);
    // RFC 8.2.2: from OpenSent a TCP failure goes to Active to await
    // a reconnect; anywhere else the session restarts from Idle.
    moveTo(state_ == SessionState::OpenSent ? SessionState::Active
                                            : SessionState::Idle);
}

void
SessionFsm::streamFailed(const DecodeError &error,
                         std::vector<Message> &tx)
{
    teardown(error.code, error.subcode, tx);
}

bool
SessionFsm::handleMessage(const Message &msg, TimeNs now,
                          std::vector<Message> &tx)
{
    switch (messageType(msg)) {
      case MessageType::Open: {
        if (state_ != SessionState::OpenSent) {
            teardown(ErrorCode::FsmError, 0, tx);
            return false;
        }
        const auto &open = std::get<OpenMessage>(msg);
        if (config_.expectedPeerAs != 0 &&
            open.myAs != config_.expectedPeerAs) {
            teardown(ErrorCode::OpenMessageError,
                     uint8_t(OpenSubcode::BadPeerAs), tx);
            return false;
        }
        peerAs_ = open.myAs;
        peerRouterId_ = open.bgpIdentifier;
        negotiatedHoldSec_ =
            std::min(config_.holdTimeSec, open.holdTimeSec);
        resetTimers(now);
        tx.push_back(KeepaliveMessage{});
        moveTo(SessionState::OpenConfirm);
        return true;
      }

      case MessageType::Keepalive:
        if (state_ == SessionState::OpenConfirm) {
            moveTo(SessionState::Established);
            resetTimers(now);
            return true;
        }
        if (state_ == SessionState::Established) {
            if (negotiatedHoldSec_ != 0) {
                holdDeadline_ =
                    now + TimeNs(negotiatedHoldSec_) * nsPerSec;
            }
            return true;
        }
        teardown(ErrorCode::FsmError, 0, tx);
        return false;

      case MessageType::Update:
      case MessageType::RouteRefresh:
        if (state_ != SessionState::Established) {
            teardown(ErrorCode::FsmError, 0, tx);
            return false;
        }
        if (negotiatedHoldSec_ != 0) {
            holdDeadline_ =
                now + TimeNs(negotiatedHoldSec_) * nsPerSec;
        }
        return true;

      case MessageType::Notification:
        negotiatedHoldSec_ = 0;
        holdDeadline_ = ~TimeNs(0);
        nextKeepalive_ = ~TimeNs(0);
        moveTo(SessionState::Idle);
        return false;
    }
    teardown(ErrorCode::FsmError, 0, tx);
    return false;
}

bool
SessionFsm::poll(TimeNs now, std::vector<Message> &tx)
{
    if (state_ != SessionState::OpenConfirm &&
        state_ != SessionState::Established) {
        return state_ != SessionState::Idle;
    }

    if (now >= holdDeadline_) {
        teardown(ErrorCode::HoldTimerExpired, 0, tx);
        return false;
    }

    if (now >= nextKeepalive_) {
        tx.push_back(KeepaliveMessage{});
        nextKeepalive_ =
            now + TimeNs(negotiatedHoldSec_) * nsPerSec / 3;
    }
    return true;
}

SessionFsm::TimeNs
SessionFsm::nextTimerDeadline() const
{
    return std::min(holdDeadline_, nextKeepalive_);
}

} // namespace bgpbench::bgp
