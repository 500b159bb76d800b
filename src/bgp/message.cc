#include "bgp/message.hh"

#include <algorithm>

#include "net/logging.hh"

namespace bgpbench::bgp
{

namespace
{

/** Begin a framed message: marker + placeholder length + type. */
size_t
beginMessage(net::ByteWriter &writer, MessageType type)
{
    writer.writeFill(proto::markerBytes, 0xff);
    size_t length_offset = writer.size();
    writer.writeU16(0); // patched by endMessage
    writer.writeU8(uint8_t(type));
    return length_offset;
}

/** Patch the length field and sanity-check the size limit. */
void
endMessage(net::ByteWriter &writer, size_t length_offset)
{
    panicIf(writer.size() > proto::maxMessageBytes,
            "encoded BGP message exceeds 4096 bytes");
    writer.patchU16(length_offset, uint16_t(writer.size()));
}

/**
 * Check the 16-byte marker @p head starts with (all ones, RFC 4271
 * §4.1); a bad or missing one means the stream is not synchronised
 * (§6.1).
 */
bool
markerIntact(std::span<const uint8_t> head, DecodeError &error)
{
    if (head.size() >= proto::markerBytes &&
        std::all_of(head.begin(), head.begin() + proto::markerBytes,
                    [](uint8_t b) { return b == 0xff; }))
        return true;
    error = DecodeError{ErrorCode::MessageHeaderError,
                        uint8_t(HeaderSubcode::ConnectionNotSynchronized),
                        "bad marker"};
    return false;
}

} // namespace

MessageType
messageType(const Message &msg)
{
    if (std::holds_alternative<OpenMessage>(msg))
        return MessageType::Open;
    if (std::holds_alternative<UpdateMessage>(msg))
        return MessageType::Update;
    if (std::holds_alternative<KeepaliveMessage>(msg))
        return MessageType::Keepalive;
    if (std::holds_alternative<RouteRefreshMessage>(msg))
        return MessageType::RouteRefresh;
    return MessageType::Notification;
}

void
encodeNlri(net::ByteWriter &writer,
           const std::vector<net::Prefix> &prefixes)
{
    for (const auto &prefix : prefixes) {
        writer.writeU8(uint8_t(prefix.length()));
        uint32_t bits = prefix.address().toUint32();
        for (int i = 0; i < prefix.wireOctets(); ++i)
            writer.writeU8(uint8_t(bits >> (24 - 8 * i)));
    }
}

size_t
nlriSize(const std::vector<net::Prefix> &prefixes)
{
    size_t size = 0;
    for (const auto &prefix : prefixes)
        size += 1 + prefix.wireOctets();
    return size;
}

std::vector<net::Prefix>
decodeNlri(net::ByteReader &reader)
{
    std::vector<net::Prefix> prefixes;
    // Each encoded prefix is >= 2 octets (length byte + at least one
    // address octet) except the rare default route, so this bound is
    // tight for real tables and avoids the doubling reallocations a
    // 500-prefix NLRI run would otherwise trigger.
    prefixes.reserve(reader.remaining() / 2 + 1);
    while (reader.ok() && reader.remaining() > 0) {
        uint8_t length = reader.readU8();
        if (length > 32) {
            reader.markError();
            return prefixes;
        }
        int octets = (length + 7) / 8;
        uint32_t bits = 0;
        for (int i = 0; i < octets; ++i)
            bits |= uint32_t(reader.readU8()) << (24 - 8 * i);
        if (!reader.ok())
            return prefixes;
        prefixes.emplace_back(net::Ipv4Address(bits), length);
    }
    return prefixes;
}

namespace
{

// The forms of the session messages, which reach the public encoders
// only through Message.

void
encodeMessageTo(net::ByteWriter &writer, const OpenMessage &msg)
{
    size_t len_off = beginMessage(writer, MessageType::Open);
    writer.writeU8(msg.version);
    writer.writeU16(msg.myAs);
    writer.writeU16(msg.holdTimeSec);
    writer.writeU32(msg.bgpIdentifier);
    writer.writeU8(uint8_t(msg.optionalParameters.size()));
    writer.writeBytes(msg.optionalParameters);
    endMessage(writer, len_off);
}

void
encodeMessageTo(net::ByteWriter &writer, const KeepaliveMessage &)
{
    size_t len_off = beginMessage(writer, MessageType::Keepalive);
    endMessage(writer, len_off);
}

void
encodeMessageTo(net::ByteWriter &writer, const NotificationMessage &msg)
{
    size_t len_off = beginMessage(writer, MessageType::Notification);
    writer.writeU8(uint8_t(msg.errorCode));
    writer.writeU8(msg.errorSubcode);
    writer.writeBytes(msg.data);
    endMessage(writer, len_off);
}

void
encodeMessageTo(net::ByteWriter &writer, const RouteRefreshMessage &msg)
{
    size_t len_off = beginMessage(writer, MessageType::RouteRefresh);
    writer.writeU16(msg.afi);
    writer.writeU8(0); // reserved
    writer.writeU8(msg.safi);
    endMessage(writer, len_off);
}

size_t
encodedSize(const OpenMessage &msg)
{
    return proto::headerBytes + 10 + msg.optionalParameters.size();
}

size_t
encodedSize(const KeepaliveMessage &)
{
    return proto::headerBytes;
}

size_t
encodedSize(const NotificationMessage &msg)
{
    return proto::headerBytes + 2 + msg.data.size();
}

size_t
encodedSize(const RouteRefreshMessage &)
{
    return proto::headerBytes + 4;
}

template <typename MessageT>
std::vector<uint8_t>
encodeToVector(const MessageT &msg)
{
    net::ByteWriter writer(encodedSize(msg));
    encodeMessageTo(writer, msg);
    return writer.take();
}

template <typename MessageT>
net::WireSegmentPtr
encodeToSegment(const MessageT &msg, net::BufferPool &pool)
{
    net::ByteWriter writer = pool.writer(encodedSize(msg));
    encodeMessageTo(writer, msg);
    return pool.seal(std::move(writer));
}

} // namespace

void
encodeMessageTo(net::ByteWriter &writer, const UpdateMessage &msg)
{
    size_t len_off = beginMessage(writer, MessageType::Update);

    size_t withdrawn_len_off = writer.size();
    writer.writeU16(0);
    encodeNlri(writer, msg.withdrawnRoutes);
    writer.patchU16(withdrawn_len_off,
                    uint16_t(writer.size() - withdrawn_len_off - 2));

    size_t attrs_len_off = writer.size();
    writer.writeU16(0);
    if (msg.attributes)
        msg.attributes->encode(writer);
    writer.patchU16(attrs_len_off,
                    uint16_t(writer.size() - attrs_len_off - 2));

    encodeNlri(writer, msg.nlri);
    endMessage(writer, len_off);
}

void
encodeMessageTo(net::ByteWriter &writer, const Message &msg)
{
    std::visit([&writer](const auto &m) { encodeMessageTo(writer, m); },
               msg);
}

size_t
encodedSize(const UpdateMessage &msg)
{
    size_t size = proto::headerBytes + 2 + 2;
    size += nlriSize(msg.withdrawnRoutes);
    if (msg.attributes)
        size += msg.attributes->encodedSize();
    size += nlriSize(msg.nlri);
    return size;
}

size_t
encodedSize(const Message &msg)
{
    return std::visit(
        [](const auto &m) { return encodedSize(m); }, msg);
}

std::vector<uint8_t>
encodeMessage(const UpdateMessage &msg)
{
    return encodeToVector(msg);
}

std::vector<uint8_t>
encodeMessage(const Message &msg)
{
    return encodeToVector(msg);
}

net::WireSegmentPtr
encodeSegment(const UpdateMessage &msg, net::BufferPool &pool)
{
    return encodeToSegment(msg, pool);
}

net::WireSegmentPtr
encodeSegment(const Message &msg, net::BufferPool &pool)
{
    return encodeToSegment(msg, pool);
}

namespace
{

std::optional<Message>
decodeOpen(net::ByteReader &body, DecodeError &error)
{
    auto fail = [&error](OpenSubcode subcode, std::string detail)
        -> std::optional<Message> {
        error = DecodeError{ErrorCode::OpenMessageError,
                            uint8_t(subcode), std::move(detail)};
        return std::nullopt;
    };

    OpenMessage msg;
    msg.version = body.readU8();
    msg.myAs = body.readU16();
    msg.holdTimeSec = body.readU16();
    msg.bgpIdentifier = body.readU32();
    uint8_t opt_len = body.readU8();

    if (!body.ok() || body.remaining() != opt_len) {
        error = DecodeError{
            ErrorCode::MessageHeaderError,
            uint8_t(HeaderSubcode::BadMessageLength), "OPEN body"};
        return std::nullopt;
    }
    if (msg.version != proto::version) {
        return fail(OpenSubcode::UnsupportedVersionNumber,
                    "version " + std::to_string(msg.version));
    }
    if (msg.myAs == 0)
        return fail(OpenSubcode::BadPeerAs, "AS 0");
    if (msg.bgpIdentifier == 0)
        return fail(OpenSubcode::BadBgpIdentifier, "identifier 0");
    // RFC 4271 4.2: hold time must be 0 or >= 3 seconds.
    if (msg.holdTimeSec == 1 || msg.holdTimeSec == 2) {
        return fail(OpenSubcode::UnacceptableHoldTime,
                    "hold time " + std::to_string(msg.holdTimeSec));
    }

    auto opt = body.readBytes(opt_len);
    msg.optionalParameters.assign(opt.begin(), opt.end());
    return Message(std::move(msg));
}

std::optional<Message>
decodeUpdate(net::ByteReader &body, DecodeError &error)
{
    auto fail = [&error](UpdateSubcode subcode, std::string detail)
        -> std::optional<Message> {
        error = DecodeError{ErrorCode::UpdateMessageError,
                            uint8_t(subcode), std::move(detail)};
        return std::nullopt;
    };

    UpdateMessage msg;

    uint16_t withdrawn_len = body.readU16();
    if (!body.ok() || body.remaining() < withdrawn_len) {
        return fail(UpdateSubcode::MalformedAttributeList,
                    "withdrawn routes length");
    }
    {
        net::ByteReader wd = body.subReader(withdrawn_len);
        msg.withdrawnRoutes = decodeNlri(wd);
        if (!wd.ok()) {
            return fail(UpdateSubcode::InvalidNetworkField,
                        "withdrawn routes NLRI");
        }
    }

    uint16_t attrs_len = body.readU16();
    if (!body.ok() || body.remaining() < attrs_len) {
        return fail(UpdateSubcode::MalformedAttributeList,
                    "attribute block length");
    }
    if (attrs_len > 0) {
        net::ByteReader ar = body.subReader(attrs_len);
        auto attrs = PathAttributes::decode(ar, error);
        if (!attrs)
            return std::nullopt;
        msg.attributes = makeAttributes(std::move(*attrs));
    }

    msg.nlri = decodeNlri(body);
    if (!body.ok())
        return fail(UpdateSubcode::InvalidNetworkField, "NLRI");

    // RFC 4271 6.3: NLRI present requires the mandatory attributes.
    if (!msg.nlri.empty() && !msg.attributes) {
        return fail(UpdateSubcode::MissingWellKnownAttribute,
                    "NLRI without attributes");
    }

    return Message(std::move(msg));
}

std::optional<Message>
decodeNotification(net::ByteReader &body, DecodeError &error)
{
    if (body.remaining() < 2) {
        error = DecodeError{ErrorCode::MessageHeaderError,
                            uint8_t(HeaderSubcode::BadMessageLength),
                            "NOTIFICATION body"};
        return std::nullopt;
    }
    NotificationMessage msg;
    msg.errorCode = ErrorCode(body.readU8());
    msg.errorSubcode = body.readU8();
    auto rest = body.readBytes(body.remaining());
    msg.data.assign(rest.begin(), rest.end());
    return Message(std::move(msg));
}

} // namespace

std::optional<Message>
decodeMessage(std::span<const uint8_t> wire, DecodeError &error)
{
    error = DecodeError{};
    net::ByteReader reader(wire);

    if (!markerIntact(wire, error))
        return std::nullopt;
    reader.skip(proto::markerBytes);

    uint16_t length = reader.readU16();
    uint8_t type = reader.readU8();
    if (!reader.ok() || length != wire.size() ||
        length < proto::minMessageBytes ||
        length > proto::maxMessageBytes) {
        error = DecodeError{ErrorCode::MessageHeaderError,
                            uint8_t(HeaderSubcode::BadMessageLength),
                            "length " + std::to_string(length)};
        return std::nullopt;
    }

    switch (MessageType(type)) {
      case MessageType::Open:
        return decodeOpen(reader, error);
      case MessageType::Update:
        return decodeUpdate(reader, error);
      case MessageType::Keepalive:
        if (length != proto::headerBytes) {
            error = DecodeError{
                ErrorCode::MessageHeaderError,
                uint8_t(HeaderSubcode::BadMessageLength),
                "KEEPALIVE with body"};
            return std::nullopt;
        }
        return Message(KeepaliveMessage{});
      case MessageType::Notification:
        return decodeNotification(reader, error);

      case MessageType::RouteRefresh: {
        if (length != proto::headerBytes + 4) {
            error = DecodeError{
                ErrorCode::MessageHeaderError,
                uint8_t(HeaderSubcode::BadMessageLength),
                "ROUTE-REFRESH length"};
            return std::nullopt;
        }
        RouteRefreshMessage msg;
        msg.afi = reader.readU16();
        reader.skip(1);
        msg.safi = reader.readU8();
        return Message(msg);
      }
    }

    error = DecodeError{ErrorCode::MessageHeaderError,
                        uint8_t(HeaderSubcode::BadMessageType),
                        "type " + std::to_string(type)};
    return std::nullopt;
}

void
StreamDecoder::maybeCompact()
{
    // Threshold compaction keeps the staging footprint bounded under
    // sustained partial-frame feeding while amortising the memmove;
    // also compact cheaply whenever consumed bytes dominate.
    if (consumed_ >= compactThresholdBytes ||
        (consumed_ > 0 && consumed_ >= buffer_.size() / 2)) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + ptrdiff_t(consumed_));
        consumed_ = 0;
    }
}

void
StreamDecoder::spillTo(size_t need)
{
    while (buffer_.size() - consumed_ < need && !segments_.empty()) {
        const net::WireSegmentPtr &seg = segments_.front();
        size_t avail = seg->size() - segmentOffset_;
        size_t want =
            std::min(avail, need - (buffer_.size() - consumed_));
        buffer_.insert(buffer_.end(),
                       seg->data() + segmentOffset_,
                       seg->data() + segmentOffset_ + want);
        segmentOffset_ += want;
        segmentBytes_ -= want;
        if (segmentOffset_ == seg->size()) {
            segments_.pop_front();
            segmentOffset_ = 0;
        }
    }
}

void
StreamDecoder::spillAll()
{
    spillTo(buffer_.size() - consumed_ + segmentBytes_);
}

void
StreamDecoder::feed(std::span<const uint8_t> bytes)
{
    if (failed_)
        return;
    maybeCompact();
    // Raw bytes must land after every byte already queued, so any
    // borrowed segments are staged first to keep stream order.
    spillAll();
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void
StreamDecoder::feed(net::WireSegmentPtr segment)
{
    if (failed_ || !segment || segment->size() == 0)
        return;
    maybeCompact();
    segmentBytes_ += segment->size();
    segments_.push_back(std::move(segment));
}

std::optional<Message>
StreamDecoder::next(DecodeError &error)
{
    error = DecodeError{};
    if (failed_) {
        error = DecodeError{
            ErrorCode::MessageHeaderError,
            uint8_t(HeaderSubcode::ConnectionNotSynchronized),
            "stream already failed"};
        return std::nullopt;
    }

    // Check a buffered 19-byte header before waiting for the rest of
    // its frame: a bad marker fails at once (RFC 4271 §6.1), instead
    // of leaving the session waiting for a framed length that junk
    // made up.
    auto framedLength = [this,
                         &error](const uint8_t *head) -> uint16_t {
        if (!markerIntact({head, proto::headerBytes}, error)) {
            failed_ = true;
            return 0;
        }
        uint16_t length = (uint16_t(head[proto::markerBytes]) << 8) |
                          head[proto::markerBytes + 1];
        if (length < proto::minMessageBytes ||
            length > proto::maxMessageBytes) {
            failed_ = true;
            error =
                DecodeError{ErrorCode::MessageHeaderError,
                            uint8_t(HeaderSubcode::BadMessageLength),
                            "framed length " + std::to_string(length)};
            return 0;
        }
        return length;
    };

    // Zero-copy fast path: nothing staged and the front segment holds
    // the whole next frame — decode straight from the borrowed span.
    if (buffer_.size() == consumed_ && !segments_.empty()) {
        const net::WireSegmentPtr &seg = segments_.front();
        size_t avail = seg->size() - segmentOffset_;
        if (avail >= proto::headerBytes) {
            const uint8_t *head = seg->data() + segmentOffset_;
            uint16_t length = framedLength(head);
            if (failed_)
                return std::nullopt;
            if (avail >= length) {
                auto msg = decodeMessage({head, length}, error);
                if (!msg) {
                    failed_ = true;
                    return std::nullopt;
                }
                segmentOffset_ += length;
                segmentBytes_ -= length;
                if (segmentOffset_ == seg->size()) {
                    segments_.pop_front();
                    segmentOffset_ = 0;
                }
                return msg;
            }
        }
        // Frame straddles the segment boundary: fall through to the
        // staging path, which spills only what the frame needs.
    }

    size_t available = buffer_.size() - consumed_ + segmentBytes_;
    if (available < proto::headerBytes)
        return std::nullopt;

    spillTo(proto::headerBytes);
    uint16_t length = framedLength(buffer_.data() + consumed_);
    if (failed_)
        return std::nullopt;
    if (available < length)
        return std::nullopt;

    spillTo(length);
    auto msg = decodeMessage({buffer_.data() + consumed_, length},
                             error);
    if (!msg) {
        failed_ = true;
        return std::nullopt;
    }
    consumed_ += length;
    maybeCompact();
    return msg;
}

} // namespace bgpbench::bgp
