/**
 * @file
 * BGP-4 message structures and wire codec (RFC 4271 section 4).
 *
 * Messages are encoded to and decoded from the exact on-the-wire
 * format: 16-byte all-ones marker, 2-byte length, 1-byte type, then
 * the type-specific body. A StreamDecoder reassembles messages from a
 * TCP-like byte stream, since BGP has no record boundaries of its own.
 */

#ifndef BGPBENCH_BGP_MESSAGE_HH
#define BGPBENCH_BGP_MESSAGE_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "bgp/path_attributes.hh"
#include "bgp/types.hh"
#include "net/byte_io.hh"
#include "net/prefix.hh"
#include "net/wire_segment.hh"

namespace bgpbench::bgp
{

/** OPEN message body (RFC 4271 section 4.2). */
struct OpenMessage
{
    uint8_t version = proto::version;
    AsNumber myAs = 0;
    uint16_t holdTimeSec = proto::defaultHoldTimeSec;
    RouterId bgpIdentifier = 0;
    /** Raw optional parameters block (unparsed; none are needed). */
    std::vector<uint8_t> optionalParameters;
};

/** UPDATE message body (RFC 4271 section 4.3). */
struct UpdateMessage
{
    std::vector<net::Prefix> withdrawnRoutes;
    /** Shared attribute block; null when the update only withdraws. */
    PathAttributesPtr attributes;
    std::vector<net::Prefix> nlri;

    /** Total routing transactions carried: withdrawals + announcements. */
    size_t transactionCount() const
    {
        return withdrawnRoutes.size() + nlri.size();
    }
};

/** KEEPALIVE has no body (RFC 4271 section 4.4). */
struct KeepaliveMessage
{
};

/** NOTIFICATION message body (RFC 4271 section 4.5). */
struct NotificationMessage
{
    ErrorCode errorCode = ErrorCode::Cease;
    uint8_t errorSubcode = 0;
    std::vector<uint8_t> data;
};

/**
 * ROUTE-REFRESH message body (RFC 2918): asks the peer to re-send
 * its Adj-RIB-Out for one address family.
 */
struct RouteRefreshMessage
{
    /** Address family identifier; 1 = IPv4. */
    uint16_t afi = 1;
    /** Subsequent AFI; 1 = unicast. */
    uint8_t safi = 1;
};

/** Any decoded BGP message. */
using Message =
    std::variant<OpenMessage, UpdateMessage, KeepaliveMessage,
                 NotificationMessage, RouteRefreshMessage>;

/** Type of a decoded Message variant. */
MessageType messageType(const Message &msg);

/** @name Streaming encoders
 *  Append one complete framed message (marker/length/type + body) to
 *  an existing writer; the writer may carry a pooled buffer.
 *  @{
 */
void encodeMessageTo(net::ByteWriter &writer, const OpenMessage &msg);
void encodeMessageTo(net::ByteWriter &writer, const UpdateMessage &msg);
void encodeMessageTo(net::ByteWriter &writer,
                     const KeepaliveMessage &msg);
void encodeMessageTo(net::ByteWriter &writer,
                     const NotificationMessage &msg);
void encodeMessageTo(net::ByteWriter &writer,
                     const RouteRefreshMessage &msg);
void encodeMessageTo(net::ByteWriter &writer, const Message &msg);
/** @} */

/** @name Whole-message encoders
 *  Each returns a complete framed message (marker/length/type + body).
 *  @{
 */
std::vector<uint8_t> encodeMessage(const OpenMessage &msg);
std::vector<uint8_t> encodeMessage(const UpdateMessage &msg);
std::vector<uint8_t> encodeMessage(const KeepaliveMessage &msg);
std::vector<uint8_t> encodeMessage(const NotificationMessage &msg);
std::vector<uint8_t> encodeMessage(const RouteRefreshMessage &msg);
std::vector<uint8_t> encodeMessage(const Message &msg);
/** @} */

/** @name Segment encoders
 *  Encode one framed message into an immutable shared WireSegment
 *  drawn from @p pool (the calling thread's pool by default). The
 *  segment can then ride every peer queue and link without copies.
 *  @{
 */
net::WireSegmentPtr
encodeSegment(const OpenMessage &msg,
              net::BufferPool &pool = net::BufferPool::global());
net::WireSegmentPtr
encodeSegment(const UpdateMessage &msg,
              net::BufferPool &pool = net::BufferPool::global());
net::WireSegmentPtr
encodeSegment(const KeepaliveMessage &msg,
              net::BufferPool &pool = net::BufferPool::global());
net::WireSegmentPtr
encodeSegment(const NotificationMessage &msg,
              net::BufferPool &pool = net::BufferPool::global());
net::WireSegmentPtr
encodeSegment(const RouteRefreshMessage &msg,
              net::BufferPool &pool = net::BufferPool::global());
net::WireSegmentPtr
encodeSegment(const Message &msg,
              net::BufferPool &pool = net::BufferPool::global());
/** @} */

/** @name Encoded-size predictors
 *  Size in bytes the framed encoding of the message will occupy —
 *  exactly encodeMessage(msg).size(), without encoding. The update
 *  builder uses the UPDATE form to pack prefixes up to the 4096-byte
 *  limit; the segment encoders use them to size pool buffers.
 *  @{
 */
size_t encodedSize(const OpenMessage &msg);
size_t encodedSize(const UpdateMessage &msg);
size_t encodedSize(const KeepaliveMessage &msg);
size_t encodedSize(const NotificationMessage &msg);
size_t encodedSize(const RouteRefreshMessage &msg);
size_t encodedSize(const Message &msg);
/** @} */

/**
 * Decode one complete framed message from @p wire.
 *
 * @param wire Exactly one message (as framed by its length field).
 * @param error Filled in on failure with the NOTIFICATION a conforming
 *              speaker would send.
 * @return The message, or std::nullopt with @p error set.
 */
std::optional<Message> decodeMessage(std::span<const uint8_t> wire,
                                     DecodeError &error);

/**
 * Incremental framer/decoder for a TCP-like byte stream.
 *
 * Feed arbitrary chunks with feed(); poll complete messages with
 * next(). The decoder validates the marker and length fields
 * (RFC 4271 section 6.1) and reports errors sticky-fashion: after a
 * framing error the stream is unusable, exactly as a real session
 * would be torn down.
 */
class StreamDecoder
{
  public:
    /** Append raw bytes received from the peer (staging copy). */
    void feed(std::span<const uint8_t> bytes);

    /**
     * Append a shared segment received from the peer. The decoder
     * borrows the segment: frames that fall entirely inside it decode
     * straight from its span with no staging copy; only frames
     * straddling a segment boundary are spilled into the staging
     * buffer.
     */
    void feed(net::WireSegmentPtr segment);

    /**
     * Extract the next complete message if one is buffered.
     *
     * @param error Set if the stream contains a malformed message.
     * @return A message, or std::nullopt if more bytes are needed or
     *         an error occurred (check @p error).
     */
    std::optional<Message> next(DecodeError &error);

    /** Bytes buffered but not yet consumed (staged + borrowed). */
    size_t
    bufferedBytes() const
    {
        return buffer_.size() - consumed_ + segmentBytes_;
    }

    /**
     * Footprint of the staging buffer, including already-consumed
     * bytes not yet compacted away. Bounded by the compaction
     * threshold plus one maximum message; the buffer-hygiene
     * regression test pins that bound.
     */
    size_t stagingBytes() const { return buffer_.size(); }

    /** True after any framing/decode error. */
    bool failed() const { return failed_; }

  private:
    /**
     * Compact once consumed staging bytes pass this threshold, so the
     * staging buffer cannot grow without bound under sustained
     * partial-frame feeding.
     */
    static constexpr size_t compactThresholdBytes = 4096;

    /** Drop consumed staging bytes once past the threshold. */
    void maybeCompact();

    /** Move bytes from borrowed segments into the staging buffer
     *  until it holds at least @p need unconsumed bytes. */
    void spillTo(size_t need);

    /** Copy every borrowed byte into the staging buffer. */
    void spillAll();

    std::vector<uint8_t> buffer_;
    size_t consumed_ = 0;
    /** Borrowed, not-yet-staged segments, in stream order after any
     *  staged bytes in buffer_. */
    std::deque<net::WireSegmentPtr> segments_;
    /** Bytes of segments_.front() already consumed or spilled. */
    size_t segmentOffset_ = 0;
    /** Unconsumed bytes across all of segments_. */
    size_t segmentBytes_ = 0;
    bool failed_ = false;
};

/** @name NLRI helpers (RFC 4271 section 4.3)
 *  @{
 */
/** Encode a prefix list in NLRI form (length octet + prefix octets). */
void encodeNlri(net::ByteWriter &writer,
                const std::vector<net::Prefix> &prefixes);
/** Bytes the NLRI encoding of @p prefixes occupies. */
size_t nlriSize(const std::vector<net::Prefix> &prefixes);
/**
 * Decode an NLRI block spanning the whole @p reader. On malformed
 * input the reader's error flag is set.
 */
std::vector<net::Prefix> decodeNlri(net::ByteReader &reader);
/** @} */

} // namespace bgpbench::bgp

#endif // BGPBENCH_BGP_MESSAGE_HH
