/**
 * @file
 * WindowController: the adaptive lookahead policy of the parallel
 * topology engine.
 *
 * PR 3 pinned every conservative window to L0, the smallest
 * cross-shard link latency, so one short link throttled every shard.
 * The controller grows the target window length toward a cap while
 * cross-shard traffic is quiet and shrinks it back toward L0 under
 * bursts, bounding the per-barrier mailbox batches.
 *
 * Determinism contract: the controller is driven exclusively by
 * virtual-time-observable quantities — the per-window cross-shard
 * message count fed to observe() — never by host time or thread
 * arrival order. For a fixed topology, schedule, and shard layout the
 * observation sequence is a pure function of the simulation, so the
 * target-length sequence replays identically on every run.
 *
 * The target is a *request*, not a guarantee: the engine still clamps
 * every window to the conservative causality bound derived from the
 * shards' earliest pending events (see topology_sim.cc), and the
 * target never drops below the floor L0, so no window is shorter than
 * L0.
 */

#ifndef BGPBENCH_TOPO_SYNC_WINDOW_HH
#define BGPBENCH_TOPO_SYNC_WINDOW_HH

#include <cstddef>
#include <cstdint>

#include "sim/time.hh"

namespace bgpbench::topo
{

class WindowController
{
  public:
    /**
     * @p floorNs is the conservative fixed window L0 (the smallest
     * cross-shard link latency); @p cutLinks sizes the traffic-burst
     * threshold. The target starts at the cap.
     */
    WindowController(sim::SimTime floorNs, size_t cutLinks);

    sim::SimTime floorNs() const { return floorNs_; }
    sim::SimTime capNs() const { return capNs_; }

    /** Current target window length (floor <= target <= cap). */
    sim::SimTime targetNs() const { return targetNs_; }

    /**
     * Cross-shard message count at which a window counts as a burst
     * and the target halves: max(64, 4 * cut links), so the batch a
     * barrier hands each link stays small relative to the cut width.
     */
    uint64_t burstThreshold() const { return burstThreshold_; }

    /**
     * Feed the number of cross-shard messages exchanged at the
     * window barrier that just completed. A burst halves the target
     * (monotone shrink while bursts persist, never below the floor);
     * a silent window doubles it (never above the cap); anything in
     * between holds.
     */
    void observe(uint64_t crossMessages);

  private:
    sim::SimTime floorNs_;
    sim::SimTime capNs_;
    sim::SimTime targetNs_;
    uint64_t burstThreshold_;
};

} // namespace bgpbench::topo

#endif // BGPBENCH_TOPO_SYNC_WINDOW_HH
