/**
 * @file
 * Big-endian (network byte order) serialisation helpers.
 *
 * ByteWriter appends network-byte-order fields to a growable buffer;
 * ByteReader consumes them with explicit bounds checking. All BGP wire
 * encoding and decoding (RFC 4271 section 4) is built on these two
 * classes, so malformed-message handling funnels through a single
 * error path: ByteReader never reads out of bounds; it sets an error
 * flag that the message codec translates into a NOTIFICATION-style
 * decode error.
 */

#ifndef BGPBENCH_NET_BYTE_IO_HH
#define BGPBENCH_NET_BYTE_IO_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/ipv4_address.hh"

namespace bgpbench::net
{

/** Growable big-endian output buffer. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    /** Reserve capacity up front to avoid reallocation. */
    explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }

    /**
     * Adopt @p recycle as the backing buffer (its contents are
     * cleared, its capacity kept) and ensure at least @p reserve
     * bytes of capacity. Lets the BufferPool hand writers recycled
     * allocations.
     */
    ByteWriter(std::vector<uint8_t> recycle, size_t reserve)
        : buf_(std::move(recycle))
    {
        buf_.clear();
        buf_.reserve(reserve);
    }

    void
    writeU8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    writeU16(uint16_t v)
    {
        buf_.push_back(uint8_t(v >> 8));
        buf_.push_back(uint8_t(v));
    }

    void
    writeU32(uint32_t v)
    {
        buf_.push_back(uint8_t(v >> 24));
        buf_.push_back(uint8_t(v >> 16));
        buf_.push_back(uint8_t(v >> 8));
        buf_.push_back(uint8_t(v));
    }

    /** Write an IPv4 address in network byte order. */
    void writeAddress(Ipv4Address addr) { writeU32(addr.toUint32()); }

    /** Append raw bytes. */
    void
    writeBytes(std::span<const uint8_t> bytes)
    {
        buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    }

    /** Append @p count copies of @p fill. */
    void
    writeFill(size_t count, uint8_t fill)
    {
        buf_.insert(buf_.end(), count, fill);
    }

    /**
     * Overwrite a previously written big-endian u16 at @p offset.
     * Used to back-patch length fields after the body is known.
     */
    void
    patchU16(size_t offset, uint16_t v)
    {
        buf_.at(offset) = uint8_t(v >> 8);
        buf_.at(offset + 1) = uint8_t(v);
    }

    size_t size() const { return buf_.size(); }

    const std::vector<uint8_t> &bytes() const { return buf_; }

    /** Move the accumulated buffer out of the writer. */
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked big-endian input cursor over a byte span.
 *
 * Reads past the end do not touch memory; they return zero and set a
 * sticky error flag. Callers check ok() once after a parsing unit
 * rather than after every field.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const uint8_t> data)
        : data_(data), pos_(0), error_(false)
    {}

    uint8_t
    readU8()
    {
        if (!require(1))
            return 0;
        return data_[pos_++];
    }

    uint16_t
    readU16()
    {
        if (!require(2))
            return 0;
        uint16_t v = (uint16_t(data_[pos_]) << 8) | data_[pos_ + 1];
        pos_ += 2;
        return v;
    }

    uint32_t
    readU32()
    {
        if (!require(4))
            return 0;
        uint32_t v = (uint32_t(data_[pos_]) << 24) |
                     (uint32_t(data_[pos_ + 1]) << 16) |
                     (uint32_t(data_[pos_ + 2]) << 8) |
                     uint32_t(data_[pos_ + 3]);
        pos_ += 4;
        return v;
    }

    Ipv4Address readAddress() { return Ipv4Address(readU32()); }

    /**
     * Read @p count raw bytes. On under-run, returns an empty span and
     * sets the error flag.
     */
    std::span<const uint8_t>
    readBytes(size_t count)
    {
        if (!require(count))
            return {};
        auto out = data_.subspan(pos_, count);
        pos_ += count;
        return out;
    }

    /** Skip @p count bytes. */
    void
    skip(size_t count)
    {
        if (require(count))
            pos_ += count;
    }

    /** Bytes left to read. */
    size_t remaining() const { return error_ ? 0 : data_.size() - pos_; }

    /** Absolute cursor position. */
    size_t position() const { return pos_; }

    /** True if no bounds violation has occurred. */
    bool ok() const { return !error_; }

    /** True once all input has been consumed without error. */
    bool atEnd() const { return !error_ && pos_ == data_.size(); }

    /** Explicitly mark the stream as bad (semantic errors). */
    void markError() { error_ = true; }

    /**
     * Produce a sub-reader over the next @p count bytes and advance
     * past them; used for length-delimited fields (path attributes).
     */
    ByteReader
    subReader(size_t count)
    {
        auto bytes = readBytes(count);
        ByteReader sub(bytes);
        if (error_)
            sub.markError();
        return sub;
    }

  private:
    bool
    require(size_t count)
    {
        if (error_ || data_.size() - pos_ < count) {
            error_ = true;
            return false;
        }
        return true;
    }

    std::span<const uint8_t> data_;
    size_t pos_;
    bool error_;
};

/** Render bytes as lowercase hex, for diagnostics and tests. */
std::string toHex(std::span<const uint8_t> bytes);

} // namespace bgpbench::net

#endif // BGPBENCH_NET_BYTE_IO_HH
