/**
 * @file
 * Tests for the BGP message codec and the TCP stream decoder.
 */

#include <gtest/gtest.h>

#include "bgp/message.hh"
#include "workload/rng.hh"

using namespace bgpbench;
using namespace bgpbench::bgp;

namespace
{

PathAttributesPtr
sampleAttrs(uint16_t first_as = 100)
{
    PathAttributes attrs;
    attrs.asPath = AsPath::sequence({first_as, 200});
    attrs.nextHop = net::Ipv4Address(10, 0, 0, 2);
    return makeAttributes(std::move(attrs));
}

Message
decodeOk(const std::vector<uint8_t> &wire)
{
    DecodeError error;
    auto msg = decodeMessage(wire, error);
    EXPECT_TRUE(msg.has_value()) << error.detail;
    return msg.value_or(Message(KeepaliveMessage{}));
}

} // namespace

TEST(MessageCodec, KeepaliveRoundTrip)
{
    auto wire = encodeMessage(KeepaliveMessage{});
    EXPECT_EQ(wire.size(), proto::headerBytes);
    auto msg = decodeOk(wire);
    EXPECT_EQ(messageType(msg), MessageType::Keepalive);
}

TEST(MessageCodec, OpenRoundTrip)
{
    OpenMessage open;
    open.myAs = 65001;
    open.holdTimeSec = 90;
    open.bgpIdentifier = 0x0a000001;

    auto wire = encodeMessage(open);
    auto msg = decodeOk(wire);
    ASSERT_EQ(messageType(msg), MessageType::Open);
    const auto &decoded = std::get<OpenMessage>(msg);
    EXPECT_EQ(decoded.version, proto::version);
    EXPECT_EQ(decoded.myAs, 65001);
    EXPECT_EQ(decoded.holdTimeSec, 90);
    EXPECT_EQ(decoded.bgpIdentifier, 0x0a000001u);
}

TEST(MessageCodec, NotificationRoundTrip)
{
    NotificationMessage notif;
    notif.errorCode = ErrorCode::UpdateMessageError;
    notif.errorSubcode = 5;
    notif.data = {1, 2, 3};

    auto msg = decodeOk(encodeMessage(notif));
    ASSERT_EQ(messageType(msg), MessageType::Notification);
    const auto &decoded = std::get<NotificationMessage>(msg);
    EXPECT_EQ(decoded.errorCode, ErrorCode::UpdateMessageError);
    EXPECT_EQ(decoded.errorSubcode, 5);
    EXPECT_EQ(decoded.data, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(MessageCodec, UpdateAnnounceRoundTrip)
{
    UpdateMessage update;
    update.attributes = sampleAttrs();
    update.nlri = {net::Prefix::fromString("10.1.0.0/16"),
                   net::Prefix::fromString("10.2.3.0/24")};

    auto wire = encodeMessage(update);
    EXPECT_EQ(wire.size(), encodedSize(update));

    auto msg = decodeOk(wire);
    ASSERT_EQ(messageType(msg), MessageType::Update);
    const auto &decoded = std::get<UpdateMessage>(msg);
    EXPECT_EQ(decoded.nlri, update.nlri);
    ASSERT_TRUE(decoded.attributes);
    EXPECT_EQ(*decoded.attributes, *update.attributes);
    EXPECT_TRUE(decoded.withdrawnRoutes.empty());
    EXPECT_EQ(decoded.transactionCount(), 2u);
}

TEST(MessageCodec, UpdateWithdrawRoundTrip)
{
    UpdateMessage update;
    update.withdrawnRoutes = {net::Prefix::fromString("10.1.0.0/16")};

    auto msg = decodeOk(encodeMessage(update));
    const auto &decoded = std::get<UpdateMessage>(msg);
    EXPECT_EQ(decoded.withdrawnRoutes, update.withdrawnRoutes);
    EXPECT_FALSE(decoded.attributes);
}

TEST(MessageCodec, UpdateMixedRoundTrip)
{
    UpdateMessage update;
    update.withdrawnRoutes = {net::Prefix::fromString("10.9.0.0/16")};
    update.attributes = sampleAttrs();
    update.nlri = {net::Prefix::fromString("10.1.0.0/16")};

    auto msg = decodeOk(encodeMessage(update));
    const auto &decoded = std::get<UpdateMessage>(msg);
    EXPECT_EQ(decoded.transactionCount(), 2u);
    EXPECT_EQ(decoded.withdrawnRoutes, update.withdrawnRoutes);
    EXPECT_EQ(decoded.nlri, update.nlri);
}

TEST(MessageCodec, BadMarkerRejected)
{
    auto wire = encodeMessage(KeepaliveMessage{});
    wire[3] = 0x00;
    DecodeError error;
    EXPECT_FALSE(decodeMessage(wire, error).has_value());
    EXPECT_EQ(error.code, ErrorCode::MessageHeaderError);
    EXPECT_EQ(
        error.subcode,
        uint8_t(HeaderSubcode::ConnectionNotSynchronized));
}

TEST(MessageCodec, LengthMismatchRejected)
{
    auto wire = encodeMessage(KeepaliveMessage{});
    wire[17] = 50; // claim longer than actual
    DecodeError error;
    EXPECT_FALSE(decodeMessage(wire, error).has_value());
    EXPECT_EQ(error.subcode,
              uint8_t(HeaderSubcode::BadMessageLength));
}

TEST(MessageCodec, BadTypeRejected)
{
    auto wire = encodeMessage(KeepaliveMessage{});
    wire[18] = 42;
    DecodeError error;
    EXPECT_FALSE(decodeMessage(wire, error).has_value());
    EXPECT_EQ(error.subcode, uint8_t(HeaderSubcode::BadMessageType));
}

TEST(MessageCodec, NlriWithoutAttributesRejected)
{
    // Hand-build an UPDATE with NLRI but an empty attribute block.
    net::ByteWriter w;
    w.writeFill(proto::markerBytes, 0xff);
    size_t len_off = w.size();
    w.writeU16(0);
    w.writeU8(uint8_t(MessageType::Update));
    w.writeU16(0); // no withdrawals
    w.writeU16(0); // no attributes
    w.writeU8(24); // one /24 prefix
    w.writeU8(10);
    w.writeU8(1);
    w.writeU8(2);
    w.patchU16(len_off, uint16_t(w.size()));

    DecodeError error;
    EXPECT_FALSE(decodeMessage(w.bytes(), error).has_value());
    EXPECT_EQ(error.subcode,
              uint8_t(UpdateSubcode::MissingWellKnownAttribute));
}

TEST(MessageCodec, BadPrefixLengthRejected)
{
    UpdateMessage update;
    update.withdrawnRoutes = {net::Prefix::fromString("10.0.0.0/8")};
    auto wire = encodeMessage(update);
    // Withdrawn block starts after header + 2-byte length; corrupt
    // the prefix length octet to 60.
    wire[proto::headerBytes + 2] = 60;
    DecodeError error;
    EXPECT_FALSE(decodeMessage(wire, error).has_value());
    EXPECT_EQ(error.code, ErrorCode::UpdateMessageError);
}

TEST(MessageCodec, OpenBadVersionRejected)
{
    OpenMessage open;
    open.myAs = 1;
    open.bgpIdentifier = 1;
    auto wire = encodeMessage(open);
    wire[proto::headerBytes] = 3; // BGP-3
    DecodeError error;
    EXPECT_FALSE(decodeMessage(wire, error).has_value());
    EXPECT_EQ(error.code, ErrorCode::OpenMessageError);
    EXPECT_EQ(error.subcode,
              uint8_t(OpenSubcode::UnsupportedVersionNumber));
}

TEST(MessageCodec, OpenBadHoldTimeRejected)
{
    OpenMessage open;
    open.myAs = 1;
    open.bgpIdentifier = 1;
    open.holdTimeSec = 2; // RFC 4271: 1 and 2 are illegal
    DecodeError error;
    EXPECT_FALSE(decodeMessage(encodeMessage(open), error).has_value());
    EXPECT_EQ(error.subcode,
              uint8_t(OpenSubcode::UnacceptableHoldTime));
}

TEST(MessageCodec, OpenZeroAsRejected)
{
    OpenMessage open;
    open.myAs = 0;
    open.bgpIdentifier = 1;
    DecodeError error;
    EXPECT_FALSE(decodeMessage(encodeMessage(open), error).has_value());
    EXPECT_EQ(error.subcode, uint8_t(OpenSubcode::BadPeerAs));
}

TEST(MessageCodec, NlriEncodingUsesMinimumOctets)
{
    UpdateMessage update;
    update.attributes = sampleAttrs();
    update.nlri = {net::Prefix::fromString("10.0.0.0/8")};
    // /8 prefix needs 1 octet: total = header + 2 + 2 + attrs + 2.
    size_t expected = proto::headerBytes + 4 +
                      update.attributes->encodedSize() + 2;
    EXPECT_EQ(encodeMessage(update).size(), expected);
}

TEST(StreamDecoder, ReassemblesSplitMessages)
{
    auto wire1 = encodeMessage(KeepaliveMessage{});
    OpenMessage open;
    open.myAs = 7;
    open.bgpIdentifier = 9;
    auto wire2 = encodeMessage(open);

    std::vector<uint8_t> stream(wire1);
    stream.insert(stream.end(), wire2.begin(), wire2.end());

    StreamDecoder decoder;
    DecodeError error;

    // Feed one byte at a time; messages appear exactly when complete.
    size_t decoded = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
        decoder.feed(std::span(&stream[i], 1));
        while (auto msg = decoder.next(error))
            ++decoded;
        EXPECT_FALSE(error) << error.detail;
    }
    EXPECT_EQ(decoded, 2u);
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
}

TEST(StreamDecoder, CoalescedFeedYieldsAllMessages)
{
    std::vector<uint8_t> stream;
    for (int i = 0; i < 5; ++i) {
        auto wire = encodeMessage(KeepaliveMessage{});
        stream.insert(stream.end(), wire.begin(), wire.end());
    }
    StreamDecoder decoder;
    decoder.feed(stream);
    DecodeError error;
    int count = 0;
    while (decoder.next(error))
        ++count;
    EXPECT_EQ(count, 5);
    EXPECT_FALSE(error);
}

TEST(StreamDecoder, BadFramingIsSticky)
{
    StreamDecoder decoder;
    std::vector<uint8_t> garbage(proto::headerBytes, 0xff);
    garbage[16] = 0; // framed length 5: illegal
    garbage[17] = 5;
    decoder.feed(garbage);

    DecodeError error;
    EXPECT_FALSE(decoder.next(error).has_value());
    EXPECT_TRUE(bool(error));
    EXPECT_TRUE(decoder.failed());

    // Even valid bytes afterwards cannot resynchronise the stream.
    decoder.feed(encodeMessage(KeepaliveMessage{}));
    EXPECT_FALSE(decoder.next(error).has_value());
}

TEST(StreamDecoder, BadMarkerFailsAsSoonAsTheHeaderArrives)
{
    // A header with a bad marker claiming a 4096-byte frame: the
    // decoder must not wait for the other 4077 bytes, on the staging
    // path or on the zero-copy segment path.
    std::vector<uint8_t> header(proto::headerBytes, 0xff);
    header[5] = 0x7f;
    header[16] = 0x10; // framed length 4096
    header[17] = 0x00;
    header[18] = uint8_t(MessageType::Update);

    StreamDecoder staged;
    staged.feed(std::span<const uint8_t>(header));
    StreamDecoder borrowed;
    borrowed.feed(net::BufferPool::global().wrap(header));
    for (StreamDecoder *decoder : {&staged, &borrowed}) {
        DecodeError error;
        EXPECT_FALSE(decoder->next(error).has_value());
        EXPECT_EQ(error.code, ErrorCode::MessageHeaderError);
        EXPECT_EQ(error.subcode,
                  uint8_t(HeaderSubcode::ConnectionNotSynchronized));
        EXPECT_TRUE(decoder->failed());
    }
}

TEST(StreamDecoder, PartialMessageNeedsMoreBytes)
{
    auto wire = encodeMessage(KeepaliveMessage{});
    StreamDecoder decoder;
    decoder.feed(std::span(wire.data(), wire.size() - 1));
    DecodeError error;
    EXPECT_FALSE(decoder.next(error).has_value());
    EXPECT_FALSE(error);
    decoder.feed(std::span(wire.data() + wire.size() - 1, 1));
    EXPECT_TRUE(decoder.next(error).has_value());
}

TEST(StreamDecoder, StagingStaysBoundedUnderSustainedFeeding)
{
    // Buffer-hygiene regression: a long-lived session feeding
    // boundary-straddling frames forever must not let the staging
    // buffer's footprint (including already-consumed bytes) grow
    // without bound — consumed bytes must be compacted away.
    UpdateMessage update;
    update.attributes = sampleAttrs(100);
    for (int p = 0; p < 40; ++p) {
        update.nlri.emplace_back(
            net::Ipv4Address(10, 20, uint8_t(p), 0), 24);
    }
    auto wire = encodeMessage(update);
    ASSERT_GT(wire.size(), 64u);

    StreamDecoder decoder;
    DecodeError error;
    size_t decoded = 0;
    size_t peak_staging = 0;
    // ~1 MB of traffic in ragged chunks that never align to frames.
    for (int round = 0; round < 4000; ++round) {
        size_t pos = 0;
        while (pos < wire.size()) {
            size_t chunk = std::min<size_t>(61, wire.size() - pos);
            decoder.feed(std::span(&wire[pos], chunk));
            pos += chunk;
            while (decoder.next(error))
                ++decoded;
            ASSERT_FALSE(error) << error.detail;
            peak_staging =
                std::max(peak_staging, decoder.stagingBytes());
        }
    }
    EXPECT_EQ(decoded, 4000u);
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
    // Bounded by the compaction threshold plus one maximum message,
    // regardless of how much traffic flowed.
    EXPECT_LE(peak_staging, 4096u + proto::maxMessageBytes);
}

TEST(StreamDecoder, SegmentFeedDecodesWithoutStaging)
{
    // Whole frames fed as shared segments must decode straight from
    // the borrowed span: nothing ever lands in the staging buffer.
    StreamDecoder decoder;
    DecodeError error;
    size_t decoded = 0;
    for (int i = 0; i < 50; ++i) {
        decoder.feed(encodeSegment(KeepaliveMessage{}));
        while (decoder.next(error))
            ++decoded;
        ASSERT_FALSE(error) << error.detail;
        EXPECT_EQ(decoder.stagingBytes(), 0u);
    }
    EXPECT_EQ(decoded, 50u);
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
}

TEST(StreamDecoder, MixedSegmentAndSpanFeedsKeepStreamOrder)
{
    OpenMessage open;
    open.myAs = 11;
    open.bgpIdentifier = 12;
    auto open_wire = encodeMessage(open);

    StreamDecoder decoder;
    DecodeError error;
    // First half of the OPEN as raw bytes, second half inside a
    // segment, then a whole keepalive segment.
    size_t half = open_wire.size() / 2;
    decoder.feed(std::span(open_wire.data(), half));
    EXPECT_FALSE(decoder.next(error).has_value());
    decoder.feed(net::BufferPool::global().wrap(std::vector<uint8_t>(
        open_wire.begin() + long(half), open_wire.end())));
    decoder.feed(encodeSegment(KeepaliveMessage{}));

    auto first = decoder.next(error);
    ASSERT_TRUE(first.has_value()) << error.detail;
    EXPECT_EQ(messageType(*first), MessageType::Open);
    auto second = decoder.next(error);
    ASSERT_TRUE(second.has_value()) << error.detail;
    EXPECT_EQ(messageType(*second), MessageType::Keepalive);
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
}

TEST(StreamDecoder, FrameStraddlingSegmentsReassembles)
{
    // One frame split across three segments exercises the spill path
    // that copies only the straddling frame into staging.
    UpdateMessage update;
    update.attributes = sampleAttrs(7);
    update.nlri.emplace_back(net::Ipv4Address(10, 1, 2, 0), 24);
    auto wire = encodeMessage(update);

    StreamDecoder decoder;
    DecodeError error;
    auto &pool = net::BufferPool::global();
    size_t third = wire.size() / 3;
    decoder.feed(pool.wrap(std::vector<uint8_t>(
        wire.begin(), wire.begin() + long(third))));
    EXPECT_FALSE(decoder.next(error).has_value());
    decoder.feed(pool.wrap(std::vector<uint8_t>(
        wire.begin() + long(third), wire.begin() + long(2 * third))));
    EXPECT_FALSE(decoder.next(error).has_value());
    decoder.feed(pool.wrap(std::vector<uint8_t>(
        wire.begin() + long(2 * third), wire.end())));
    auto msg = decoder.next(error);
    ASSERT_TRUE(msg.has_value()) << error.detail;
    EXPECT_EQ(messageType(*msg), MessageType::Update);
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
}

/** Property: random update batches survive stream reassembly. */
TEST(StreamDecoderProperty, RandomChunkingRoundTrip)
{
    workload::Rng rng(41);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<UpdateMessage> sent;
        std::vector<uint8_t> stream;
        int messages = int(rng.range(1, 12));
        for (int m = 0; m < messages; ++m) {
            UpdateMessage update;
            update.attributes =
                sampleAttrs(uint16_t(rng.range(1, 60000)));
            int prefixes = int(rng.range(1, 20));
            for (int p = 0; p < prefixes; ++p) {
                update.nlri.emplace_back(
                    net::Ipv4Address(uint32_t(rng.next())),
                    int(rng.range(8, 28)));
            }
            auto wire = encodeMessage(update);
            stream.insert(stream.end(), wire.begin(), wire.end());
            sent.push_back(std::move(update));
        }

        StreamDecoder decoder;
        DecodeError error;
        std::vector<UpdateMessage> received;
        size_t pos = 0;
        while (pos < stream.size()) {
            size_t chunk = std::min<size_t>(
                rng.range(1, 600), stream.size() - pos);
            decoder.feed(std::span(&stream[pos], chunk));
            pos += chunk;
            while (auto msg = decoder.next(error)) {
                received.push_back(
                    std::get<UpdateMessage>(std::move(*msg)));
            }
            ASSERT_FALSE(error) << error.detail;
        }

        ASSERT_EQ(received.size(), sent.size());
        for (size_t i = 0; i < sent.size(); ++i) {
            EXPECT_EQ(received[i].nlri, sent[i].nlri);
            EXPECT_EQ(*received[i].attributes, *sent[i].attributes);
        }
    }
}
