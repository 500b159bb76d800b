/**
 * @file
 * Robustness ("fuzz") tests: the wire codec and the stream decoder
 * must never crash, read out of bounds, or loop on hostile input —
 * they either produce a message or a well-formed DecodeError.
 */

#include <gtest/gtest.h>

#include "bgp/message.hh"
#include "bgp/speaker.hh"
#include "workload/rng.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

std::vector<uint8_t>
randomBytes(workload::Rng &rng, size_t max_len)
{
    std::vector<uint8_t> bytes(rng.below(max_len + 1));
    for (auto &b : bytes)
        b = uint8_t(rng.next());
    return bytes;
}

/** A framed message with a valid header but random body. */
std::vector<uint8_t>
randomFramedMessage(workload::Rng &rng)
{
    size_t body = rng.below(200);
    net::ByteWriter w;
    w.writeFill(proto::markerBytes, 0xff);
    w.writeU16(uint16_t(proto::headerBytes + body));
    w.writeU8(uint8_t(rng.range(1, 5))); // valid type codes
    for (size_t i = 0; i < body; ++i)
        w.writeU8(uint8_t(rng.next()));
    return w.take();
}

UpdateMessage
sampleUpdate(workload::Rng &rng)
{
    UpdateMessage update;
    PathAttributes attrs;
    attrs.asPath = AsPath::sequence(
        {AsNumber(rng.range(1, 65000)), AsNumber(rng.range(1, 65000))});
    attrs.nextHop = net::Ipv4Address(uint32_t(rng.range(1, 1u << 30)));
    if (rng.below(2))
        attrs.med = uint32_t(rng.next());
    update.attributes = makeAttributes(std::move(attrs));
    int prefixes = int(rng.range(1, 12));
    for (int i = 0; i < prefixes; ++i) {
        update.nlri.emplace_back(
            net::Ipv4Address(uint32_t(rng.next())),
            int(rng.range(8, 32)));
    }
    return update;
}

OpenMessage
sampleOpen(workload::Rng &rng)
{
    OpenMessage open;
    open.myAs = AsNumber(rng.range(1, 65000));
    open.holdTimeSec = uint16_t(rng.below(400));
    open.bgpIdentifier = RouterId(rng.next());
    size_t opt = rng.below(16);
    for (size_t i = 0; i < opt; ++i)
        open.optionalParameters.push_back(uint8_t(rng.next()));
    return open;
}

NotificationMessage
sampleNotification(workload::Rng &rng)
{
    NotificationMessage notif;
    notif.errorCode = ErrorCode(rng.range(1, 6));
    notif.errorSubcode = uint8_t(rng.below(12));
    size_t data = rng.below(32);
    for (size_t i = 0; i < data; ++i)
        notif.data.push_back(uint8_t(rng.next()));
    return notif;
}

/**
 * encodedSize() must agree exactly with the bytes encodeMessage()
 * produces, and encodeSegment() must produce those same bytes —
 * the zero-copy transmit path sizes pool buffers from encodedSize().
 */
template <typename T>
void
expectSizeConsistent(const T &msg)
{
    auto wire = encodeMessage(msg);
    EXPECT_EQ(wire.size(), encodedSize(msg));
    auto segment = encodeSegment(msg);
    ASSERT_NE(segment, nullptr);
    EXPECT_TRUE(std::equal(wire.begin(), wire.end(),
                           segment->bytes().begin(),
                           segment->bytes().end()));
}

} // namespace

TEST(Fuzz, EncodedSizeMatchesEncodingForEveryMessageType)
{
    workload::Rng rng(137);
    for (int trial = 0; trial < 400; ++trial) {
        expectSizeConsistent(sampleOpen(rng));
        expectSizeConsistent(sampleUpdate(rng));
        expectSizeConsistent(KeepaliveMessage{});
        expectSizeConsistent(sampleNotification(rng));
        expectSizeConsistent(RouteRefreshMessage{});

        // The Message variant wrapper must agree with the concrete
        // overloads it dispatches to.
        Message variant = sampleUpdate(rng);
        expectSizeConsistent(variant);
        variant = sampleOpen(rng);
        expectSizeConsistent(variant);
        variant = sampleNotification(rng);
        expectSizeConsistent(variant);
        variant = KeepaliveMessage{};
        expectSizeConsistent(variant);
        variant = RouteRefreshMessage{};
        expectSizeConsistent(variant);
    }

    // Withdrawal-only and mixed UPDATEs exercise the withdrawn-routes
    // length arm that pure announcements never touch.
    for (int trial = 0; trial < 200; ++trial) {
        UpdateMessage update = sampleUpdate(rng);
        update.withdrawnRoutes = update.nlri;
        expectSizeConsistent(update);
        update.nlri.clear();
        update.attributes = nullptr;
        expectSizeConsistent(update);
    }
}

TEST(Fuzz, DecodeMessageSurvivesRandomBytes)
{
    workload::Rng rng(101);
    for (int trial = 0; trial < 5000; ++trial) {
        auto bytes = randomBytes(rng, 512);
        DecodeError error;
        auto msg = decodeMessage(bytes, error);
        // Either a message or an error; never both unset.
        EXPECT_TRUE(msg.has_value() || bool(error));
    }
}

TEST(Fuzz, DecodeMessageSurvivesRandomValidlyFramedBodies)
{
    workload::Rng rng(103);
    for (int trial = 0; trial < 5000; ++trial) {
        auto bytes = randomFramedMessage(rng);
        DecodeError error;
        auto msg = decodeMessage(bytes, error);
        EXPECT_TRUE(msg.has_value() || bool(error));
        if (!msg) {
            EXPECT_NE(error.code, ErrorCode::None);
        }
    }
}

TEST(Fuzz, SingleBitCorruptionNeverCrashesDecoder)
{
    workload::Rng rng(107);
    for (int trial = 0; trial < 400; ++trial) {
        auto wire = encodeMessage(sampleUpdate(rng));
        // Flip one random bit.
        size_t byte = rng.below(wire.size());
        wire[byte] ^= uint8_t(1u << rng.below(8));

        DecodeError error;
        auto msg = decodeMessage(wire, error);
        // Corruption may still decode (e.g., a flipped prefix bit is
        // a different but legal prefix); it must not crash, and an
        // error must be classified when reported.
        if (!msg) {
            EXPECT_NE(error.code, ErrorCode::None);
        }
    }
}

TEST(Fuzz, TruncationAtEveryLengthIsGraceful)
{
    workload::Rng rng(109);
    auto wire = encodeMessage(sampleUpdate(rng));
    for (size_t len = 0; len < wire.size(); ++len) {
        DecodeError error;
        std::span<const uint8_t> prefix(wire.data(), len);
        auto msg = decodeMessage(prefix, error);
        EXPECT_FALSE(msg.has_value()) << "decoded a truncation";
        EXPECT_TRUE(bool(error));
    }
}

TEST(Fuzz, StreamDecoderSurvivesGarbageStreams)
{
    workload::Rng rng(113);
    for (int trial = 0; trial < 300; ++trial) {
        StreamDecoder decoder;
        DecodeError error;
        size_t budget = 4096;
        while (budget > 0) {
            auto chunk = randomBytes(rng, 64);
            if (chunk.size() > budget)
                chunk.resize(budget);
            budget -= chunk.size();
            decoder.feed(chunk);
            // Drain; must terminate (bounded by buffered bytes).
            int safety = 1000;
            while (decoder.next(error) && --safety > 0) {
            }
            EXPECT_GT(safety, 0) << "decoder livelock";
            if (decoder.failed())
                break;
        }
    }
}

TEST(Fuzz, StreamDecoderInterleavedValidAndCorrupt)
{
    workload::Rng rng(127);
    for (int trial = 0; trial < 200; ++trial) {
        StreamDecoder decoder;
        DecodeError error;
        size_t decoded = 0;
        bool corrupted = false;
        for (int m = 0; m < 10 && !decoder.failed(); ++m) {
            auto wire = encodeMessage(sampleUpdate(rng));
            if (!corrupted && rng.below(4) == 0) {
                wire[rng.below(wire.size())] ^= 0xff;
                corrupted = true;
            }
            decoder.feed(wire);
            while (decoder.next(error))
                ++decoded;
        }
        if (!corrupted) {
            EXPECT_FALSE(decoder.failed());
            EXPECT_EQ(decoded, 10u);
        }
    }
}

TEST(Fuzz, SpeakerSurvivesHostilePeerBytes)
{
    // A speaker fed random bytes must answer with a NOTIFICATION and
    // drop the session, never crash.
    struct Sink : public SpeakerEvents
    {
        size_t notifications = 0;
        void
        onTransmit(PeerId, MessageType type, net::WireSegmentPtr,
                   size_t) override
        {
            notifications += type == MessageType::Notification;
        }
    };

    workload::Rng rng(131);
    for (int trial = 0; trial < 100; ++trial) {
        Sink sink;
        SpeakerConfig config;
        config.localAs = 65000;
        config.routerId = 1;
        config.localAddress = net::Ipv4Address(10, 0, 0, 1);
        BgpSpeaker speaker(config, &sink);

        PeerConfig peer;
        peer.id = 0;
        peer.asn = 65001;
        speaker.addPeer(peer);
        speaker.startPeer(0, 0);
        speaker.tcpEstablished(0, 0);

        // Hostile stream straight after our OPEN.
        for (int chunk = 0; chunk < 8; ++chunk)
            speaker.receiveBytes(0, randomBytes(rng, 128), 0);

        // The session is gone, answered by exactly one NOTIFICATION
        // however many junk chunks followed, or, when the junk's
        // first framed length exceeds what arrived, still waiting
        // for an OPEN with nothing sent.
        auto state = speaker.sessionState(0);
        EXPECT_TRUE(state == SessionState::Idle ||
                    state == SessionState::OpenSent)
            << toString(state);
        EXPECT_EQ(sink.notifications,
                  state == SessionState::Idle ? 1u : 0u)
            << "trial " << trial;
    }
}
