#include "topo/sync_window.hh"

#include <algorithm>

namespace bgpbench::topo
{

namespace
{

/** 1024x the floor, saturating well below simTimeNever. */
sim::SimTime
capFromFloor(sim::SimTime floor_ns)
{
    if (floor_ns == 0)
        return 0;
    if (floor_ns > (sim::simTimeNever >> 11))
        return sim::simTimeNever >> 1;
    return floor_ns << 10;
}

} // namespace

WindowController::WindowController(sim::SimTime floor_ns,
                                   size_t cut_links)
    : floorNs_(floor_ns), capNs_(capFromFloor(floor_ns)),
      targetNs_(capNs_),
      burstThreshold_(std::max<uint64_t>(64, 4 * uint64_t(cut_links)))
{
}

void
WindowController::observe(uint64_t cross_messages)
{
    if (cross_messages > burstThreshold_)
        targetNs_ = std::max(floorNs_, targetNs_ / 2);
    else if (cross_messages == 0)
        targetNs_ = std::min(capNs_, targetNs_ * 2);
}

} // namespace bgpbench::topo
