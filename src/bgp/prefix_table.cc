#include "bgp/prefix_table.hh"

namespace bgpbench::bgp
{

SharedPrefixTable::Slot
SharedPrefixTable::resolve(const net::Prefix &prefix)
{
    bool inserted = false;
    Slot *entry = tree_.findOrInsert(prefix, &inserted);
    if (!inserted)
        return *entry;
    Slot slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = Slot(slotPrefix_.size());
        slotPrefix_.emplace_back();
        slotRefs_.push_back(0);
    }
    slotPrefix_[slot] = prefix;
    slotRefs_[slot] = 0;
    *entry = slot;
    return slot;
}

} // namespace bgpbench::bgp
