#include "bgp/path_attributes.hh"

#include <algorithm>

#include "bgp/attr_intern.hh"

namespace bgpbench::bgp
{

bool
PathAttributes::operator==(const PathAttributes &other) const
{
    if (intern_.hash != 0 && other.intern_.hash != 0 &&
        intern_.hash != other.intern_.hash) {
        return false;
    }
    return origin == other.origin && nextHop == other.nextHop &&
           med == other.med && localPref == other.localPref &&
           atomicAggregate == other.atomicAggregate &&
           aggregator == other.aggregator &&
           originatorId == other.originatorId &&
           asPath == other.asPath &&
           communities == other.communities &&
           clusterList == other.clusterList;
}

uint64_t
PathAttributes::hash() const
{
    if (intern_.hash != 0)
        return intern_.hash;

    // FNV-1a over every field, with explicit presence markers so an
    // absent optional cannot collide with a present zero.
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };

    mix(uint64_t(origin));
    for (const auto &segment : asPath.segments()) {
        mix(uint64_t(segment.type));
        mix(segment.asns.size());
        for (AsNumber asn : segment.asns)
            mix(asn);
    }
    mix(nextHop.toUint32());
    mix(med.has_value());
    mix(med.value_or(0));
    mix(localPref.has_value());
    mix(localPref.value_or(0));
    mix(atomicAggregate);
    mix(aggregator.has_value());
    if (aggregator) {
        mix(aggregator->asn);
        mix(aggregator->address.toUint32());
    }
    mix(communities.size());
    for (uint32_t community : communities)
        mix(community);
    mix(originatorId.has_value());
    mix(originatorId.value_or(0));
    mix(clusterList.size());
    for (uint32_t cluster : clusterList)
        mix(cluster);

    if (h == 0)
        h = 0x9e3779b97f4a7c15ull;
    intern_.hash = h;
    return h;
}

namespace
{

/**
 * Append one attribute header for a value of @p size bytes; the caller
 * writes the value straight after it. Uses the extended-length flag
 * automatically when the value exceeds 255 bytes.
 */
void
writeHeader(net::ByteWriter &writer, uint8_t flags, AttrType type,
            size_t size)
{
    if (size > 255)
        flags |= attr_flags::extendedLength;
    writer.writeU8(flags);
    writer.writeU8(uint8_t(type));
    if (flags & attr_flags::extendedLength)
        writer.writeU16(uint16_t(size));
    else
        writer.writeU8(uint8_t(size));
}

constexpr uint8_t wellKnown = attr_flags::transitive;
constexpr uint8_t optTransitive =
    attr_flags::optional | attr_flags::transitive;
constexpr uint8_t optNonTransitive = attr_flags::optional;

} // namespace

void
PathAttributes::encode(net::ByteWriter &writer) const
{
    // Every value size is known up front (the same figures
    // encodedSize() adds up), so each header is written first and the
    // value follows in place — no per-attribute staging buffer.
    writeHeader(writer, wellKnown, AttrType::Origin, 1);
    writer.writeU8(uint8_t(origin));

    writeHeader(writer, wellKnown, AttrType::AsPath,
                asPath.encodedValueSize());
    asPath.encodeValue(writer);

    writeHeader(writer, wellKnown, AttrType::NextHop, 4);
    writer.writeAddress(nextHop);

    if (med) {
        writeHeader(writer, optNonTransitive, AttrType::MultiExitDisc, 4);
        writer.writeU32(*med);
    }

    if (localPref) {
        writeHeader(writer, wellKnown, AttrType::LocalPref, 4);
        writer.writeU32(*localPref);
    }

    if (atomicAggregate)
        writeHeader(writer, wellKnown, AttrType::AtomicAggregate, 0);

    if (aggregator) {
        writeHeader(writer, optTransitive, AttrType::Aggregator, 6);
        writer.writeU16(aggregator->asn);
        writer.writeAddress(aggregator->address);
    }

    if (!communities.empty()) {
        writeHeader(writer, optTransitive, AttrType::Community,
                    4 * communities.size());
        for (uint32_t community : communities)
            writer.writeU32(community);
    }

    if (originatorId) {
        writeHeader(writer, optNonTransitive, AttrType::OriginatorId, 4);
        writer.writeU32(*originatorId);
    }

    if (!clusterList.empty()) {
        writeHeader(writer, optNonTransitive, AttrType::ClusterList,
                    4 * clusterList.size());
        for (uint32_t cluster : clusterList)
            writer.writeU32(cluster);
    }
}

size_t
PathAttributes::encodedSize() const
{
    auto attr_size = [](size_t value_size) {
        return value_size + (value_size > 255 ? 4 : 3);
    };

    size_t size = attr_size(1);                            // ORIGIN
    size += attr_size(asPath.encodedValueSize());          // AS_PATH
    size += attr_size(4);                                  // NEXT_HOP
    if (med)
        size += attr_size(4);
    if (localPref)
        size += attr_size(4);
    if (atomicAggregate)
        size += attr_size(0);
    if (aggregator)
        size += attr_size(6);
    if (!communities.empty())
        size += attr_size(4 * communities.size());
    if (originatorId)
        size += attr_size(4);
    if (!clusterList.empty())
        size += attr_size(4 * clusterList.size());
    return size;
}

std::optional<PathAttributes>
PathAttributes::decode(net::ByteReader &reader, DecodeError &error)
{
    auto fail = [&error](UpdateSubcode subcode, std::string detail)
        -> std::optional<PathAttributes> {
        error.code = ErrorCode::UpdateMessageError;
        error.subcode = uint8_t(subcode);
        error.detail = std::move(detail);
        return std::nullopt;
    };

    PathAttributes attrs;
    bool seen_origin = false;
    bool seen_as_path = false;
    bool seen_next_hop = false;
    uint32_t seen_mask = 0;

    while (reader.remaining() > 0) {
        uint8_t flags = reader.readU8();
        uint8_t type = reader.readU8();
        size_t length = (flags & attr_flags::extendedLength)
                            ? reader.readU16()
                            : reader.readU8();
        if (!reader.ok() || reader.remaining() < length) {
            return fail(UpdateSubcode::AttributeLengthError,
                        "attribute overruns block");
        }

        // RFC 4271 6.3: an attribute may appear at most once.
        if (type < 32) {
            if (seen_mask & (1u << type)) {
                return fail(UpdateSubcode::MalformedAttributeList,
                            "duplicate attribute type " +
                                std::to_string(type));
            }
            seen_mask |= 1u << type;
        }

        net::ByteReader value = reader.subReader(length);

        auto check_flags = [&](uint8_t expected) {
            constexpr uint8_t mask =
                attr_flags::optional | attr_flags::transitive;
            return (flags & mask) == expected;
        };

        switch (AttrType(type)) {
          case AttrType::Origin:
            if (!check_flags(wellKnown)) {
                return fail(UpdateSubcode::AttributeFlagsError,
                            "ORIGIN flags");
            }
            if (length != 1) {
                return fail(UpdateSubcode::AttributeLengthError,
                            "ORIGIN length");
            }
            {
                uint8_t raw = value.readU8();
                if (raw > uint8_t(Origin::Incomplete)) {
                    return fail(UpdateSubcode::InvalidOriginAttribute,
                                "ORIGIN value " + std::to_string(raw));
                }
                attrs.origin = Origin(raw);
            }
            seen_origin = true;
            break;

          case AttrType::AsPath:
            if (!check_flags(wellKnown)) {
                return fail(UpdateSubcode::AttributeFlagsError,
                            "AS_PATH flags");
            }
            attrs.asPath = AsPath::decodeValue(value);
            if (!value.ok()) {
                return fail(UpdateSubcode::MalformedAsPath,
                            "AS_PATH segments");
            }
            seen_as_path = true;
            break;

          case AttrType::NextHop:
            if (!check_flags(wellKnown)) {
                return fail(UpdateSubcode::AttributeFlagsError,
                            "NEXT_HOP flags");
            }
            if (length != 4) {
                return fail(UpdateSubcode::AttributeLengthError,
                            "NEXT_HOP length");
            }
            attrs.nextHop = value.readAddress();
            if (attrs.nextHop.isZero()) {
                return fail(UpdateSubcode::InvalidNextHopAttribute,
                            "NEXT_HOP 0.0.0.0");
            }
            seen_next_hop = true;
            break;

          case AttrType::MultiExitDisc:
            if (!check_flags(optNonTransitive)) {
                return fail(UpdateSubcode::AttributeFlagsError,
                            "MED flags");
            }
            if (length != 4) {
                return fail(UpdateSubcode::AttributeLengthError,
                            "MED length");
            }
            attrs.med = value.readU32();
            break;

          case AttrType::LocalPref:
            if (!check_flags(wellKnown)) {
                return fail(UpdateSubcode::AttributeFlagsError,
                            "LOCAL_PREF flags");
            }
            if (length != 4) {
                return fail(UpdateSubcode::AttributeLengthError,
                            "LOCAL_PREF length");
            }
            attrs.localPref = value.readU32();
            break;

          case AttrType::AtomicAggregate:
            if (!check_flags(wellKnown)) {
                return fail(UpdateSubcode::AttributeFlagsError,
                            "ATOMIC_AGGREGATE flags");
            }
            if (length != 0) {
                return fail(UpdateSubcode::AttributeLengthError,
                            "ATOMIC_AGGREGATE length");
            }
            attrs.atomicAggregate = true;
            break;

          case AttrType::Aggregator:
            if (!check_flags(optTransitive)) {
                return fail(UpdateSubcode::AttributeFlagsError,
                            "AGGREGATOR flags");
            }
            if (length != 6) {
                return fail(UpdateSubcode::AttributeLengthError,
                            "AGGREGATOR length");
            }
            attrs.aggregator =
                Aggregator{value.readU16(), value.readAddress()};
            break;

          case AttrType::Community:
            if (!(flags & attr_flags::optional)) {
                return fail(UpdateSubcode::AttributeFlagsError,
                            "COMMUNITY flags");
            }
            if (length % 4 != 0) {
                return fail(UpdateSubcode::OptionalAttributeError,
                            "COMMUNITY length");
            }
            attrs.communities.reserve(attrs.communities.size() +
                                      length / 4);
            for (size_t i = 0; i < length / 4; ++i)
                attrs.communities.push_back(value.readU32());
            std::sort(attrs.communities.begin(),
                      attrs.communities.end());
            break;

          case AttrType::OriginatorId:
            if (!check_flags(optNonTransitive)) {
                return fail(UpdateSubcode::AttributeFlagsError,
                            "ORIGINATOR_ID flags");
            }
            if (length != 4) {
                return fail(UpdateSubcode::AttributeLengthError,
                            "ORIGINATOR_ID length");
            }
            attrs.originatorId = value.readU32();
            break;

          case AttrType::ClusterList:
            if (!check_flags(optNonTransitive)) {
                return fail(UpdateSubcode::AttributeFlagsError,
                            "CLUSTER_LIST flags");
            }
            if (length % 4 != 0 || length == 0) {
                return fail(UpdateSubcode::AttributeLengthError,
                            "CLUSTER_LIST length");
            }
            attrs.clusterList.reserve(attrs.clusterList.size() +
                                      length / 4);
            for (size_t i = 0; i < length / 4; ++i)
                attrs.clusterList.push_back(value.readU32());
            break;

          default:
            if (!(flags & attr_flags::optional)) {
                return fail(
                    UpdateSubcode::UnrecognizedWellKnownAttribute,
                    "well-known attribute type " + std::to_string(type));
            }
            // Unrecognised optional attributes are skipped; a full
            // implementation would forward transitive ones with the
            // partial bit set, which no benchmark scenario exercises.
            break;
        }

        if (!reader.ok()) {
            return fail(UpdateSubcode::AttributeLengthError,
                        "truncated attribute");
        }
    }

    if (!seen_origin || !seen_as_path || !seen_next_hop) {
        return fail(UpdateSubcode::MissingWellKnownAttribute,
                    "mandatory attribute missing");
    }

    return attrs;
}

std::string
PathAttributes::toString() const
{
    std::string out = "origin=" + bgp::toString(origin) +
                      " as-path=[" + asPath.toString() + "]" +
                      " next-hop=" + nextHop.toString();
    if (localPref)
        out += " local-pref=" + std::to_string(*localPref);
    if (med)
        out += " med=" + std::to_string(*med);
    if (atomicAggregate)
        out += " atomic-aggregate";
    return out;
}

PathAttributesPtr
makeAttributes(PathAttributes attrs)
{
    return AttributeInterner::global().intern(std::move(attrs));
}

} // namespace bgpbench::bgp
