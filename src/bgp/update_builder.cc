#include "bgp/update_builder.hh"

#include <algorithm>

namespace bgpbench::bgp
{

namespace
{

/** A prefix as an exact 64-bit key: address bits, then length. */
uint64_t
prefixKey(const net::Prefix &prefix)
{
    return (uint64_t(prefix.address().toUint32()) << 8) |
           uint64_t(prefix.length());
}

} // namespace

void
UpdateBuilder::announce(const net::Prefix &prefix,
                        PathAttributesPtr attrs)
{
    bool inserted = false;
    Location &location = pending_.findOrInsert(prefixKey(prefix), inserted);
    if (!inserted)
        tombstone(location);
    uint32_t g = groupFor(attrs);
    Group &group = groups_[g];
    group.prefixes.push_back(prefix);
    group.alive.push_back(1);
    location = Location{g, uint32_t(group.prefixes.size() - 1)};
}

void
UpdateBuilder::withdraw(const net::Prefix &prefix)
{
    bool inserted = false;
    Location &location = pending_.findOrInsert(prefixKey(prefix), inserted);
    if (!inserted) {
        if (location.group == kWithdrawal)
            return; // already pending as a withdrawal
        tombstone(location);
    }
    location = Location{kWithdrawal, uint32_t(withdrawals_.size())};
    withdrawals_.push_back(prefix);
    withdrawalsAlive_.push_back(1);
}

uint32_t
UpdateBuilder::groupFor(const PathAttributesPtr &attrs)
{
    bool inserted = false;
    uint32_t &index = groupIndex_.findOrInsert(
        attrs ? attrs->hash() : 0,
        [&](uint32_t g) {
            return sameAttributeValue(groups_[g].attributes, attrs);
        },
        inserted);
    if (inserted) {
        index = uint32_t(groupCount_);
        if (groupCount_ == groups_.size())
            groups_.emplace_back();
        groups_[groupCount_++].attributes = attrs;
    }
    return index;
}

void
UpdateBuilder::tombstone(const Location &location)
{
    if (location.group == kWithdrawal) {
        withdrawalsAlive_[location.slot] = 0;
        ++deadWithdrawals_;
    } else {
        Group &group = groups_[location.group];
        group.alive[location.slot] = 0;
        ++group.deadCount;
    }
}

void
UpdateBuilder::build(std::vector<UpdateMessage> &out)
{
    out.reserve(out.size() + groupCount_ + 1);

    // Fixed per-message overhead: header (19) + withdrawn-routes
    // length (2) + attribute-block length (2).
    constexpr size_t fixed_overhead = proto::headerBytes + 4;

    size_t cap = options_.maxPrefixesPerUpdate;
    auto chunk_reserve = [cap](size_t live) {
        return cap > 0 ? std::min(cap, live) : live;
    };

    // Withdrawal-only messages.
    if (deadWithdrawals_ < withdrawals_.size()) {
        size_t live = withdrawals_.size() - deadWithdrawals_;
        size_t budget = proto::maxMessageBytes - fixed_overhead;
        UpdateMessage msg;
        msg.withdrawnRoutes.reserve(chunk_reserve(live));
        size_t used = 0;
        for (size_t i = 0; i < withdrawals_.size(); ++i) {
            if (!withdrawalsAlive_[i])
                continue;
            const net::Prefix &prefix = withdrawals_[i];
            size_t need = 1 + prefix.wireOctets();
            bool at_cap =
                cap > 0 && msg.withdrawnRoutes.size() >= cap;
            if ((used + need > budget || at_cap) &&
                !msg.withdrawnRoutes.empty()) {
                live -= msg.withdrawnRoutes.size();
                out.push_back(std::move(msg));
                msg = UpdateMessage{};
                msg.withdrawnRoutes.reserve(chunk_reserve(live));
                used = 0;
            }
            msg.withdrawnRoutes.push_back(prefix);
            used += need;
        }
        if (!msg.withdrawnRoutes.empty())
            out.push_back(std::move(msg));
    }

    // Announcement messages, one run per attribute group in creation
    // order.
    for (size_t g = 0; g < groupCount_; ++g) {
        const Group &group = groups_[g];
        size_t live = group.prefixes.size() - group.deadCount;
        if (live == 0)
            continue;
        size_t attrs_size =
            group.attributes ? group.attributes->encodedSize() : 0;
        size_t budget =
            proto::maxMessageBytes - fixed_overhead - attrs_size;

        UpdateMessage msg;
        msg.attributes = group.attributes;
        msg.nlri.reserve(chunk_reserve(live));
        size_t used = 0;
        for (size_t i = 0; i < group.prefixes.size(); ++i) {
            if (!group.alive[i])
                continue;
            const net::Prefix &prefix = group.prefixes[i];
            size_t need = 1 + prefix.wireOctets();
            bool at_cap = cap > 0 && msg.nlri.size() >= cap;
            if ((used + need > budget || at_cap) &&
                !msg.nlri.empty()) {
                live -= msg.nlri.size();
                out.push_back(std::move(msg));
                msg = UpdateMessage{};
                msg.attributes = group.attributes;
                msg.nlri.reserve(chunk_reserve(live));
                used = 0;
            }
            msg.nlri.push_back(prefix);
            used += need;
        }
        if (!msg.nlri.empty())
            out.push_back(std::move(msg));
    }

    reset();
}

size_t
UpdateBuilder::memoryBytes() const
{
    size_t bytes = groups_.capacity() * sizeof(Group) +
                   groupIndex_.memoryBytes() + pending_.memoryBytes() +
                   withdrawals_.capacity() * sizeof(net::Prefix) +
                   withdrawalsAlive_.capacity();
    for (const Group &group : groups_) {
        bytes += group.prefixes.capacity() * sizeof(net::Prefix) +
                 group.alive.capacity();
    }
    return bytes;
}

void
UpdateBuilder::reset()
{
    for (size_t g = 0; g < groupCount_; ++g) {
        Group &group = groups_[g];
        // Drop the attribute reference so a queued-then-flushed set is
        // not kept alive by an idle builder.
        group.attributes.reset();
        group.prefixes.clear();
        group.alive.clear();
        group.deadCount = 0;
    }
    groupCount_ = 0;
    groupIndex_.reset();
    withdrawals_.clear();
    withdrawalsAlive_.clear();
    deadWithdrawals_ = 0;
    pending_.reset();
    if (memoryBytes() > retainBytes)
        *this = UpdateBuilder(options_);
}

} // namespace bgpbench::bgp
