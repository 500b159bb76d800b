/**
 * @file
 * Quantum-stepped multi-core CPU model with priority scheduling.
 *
 * Models the processor designs of the paper's Table II: a single
 * core (Pentium III, XScale), or multiple cores with two hardware
 * threads each (dual-core Xeon with hyper-threading). Interrupt and
 * kernel work preempts user space; user processes migrate between
 * logical CPUs with sticky affinity and simple load balancing, like
 * the Linux 2.6 scheduler the paper's systems ran.
 */

#ifndef BGPBENCH_SIM_CPU_HH
#define BGPBENCH_SIM_CPU_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/process.hh"
#include "sim/time.hh"

namespace bgpbench::sim
{

/** Static description of a processor. */
struct CpuConfig
{
    int cores = 1;
    /** Hardware threads per core (2 = hyper-threading). */
    int threadsPerCore = 1;
    /** Cycles per second delivered by one core running one thread. */
    double cyclesPerSecond = 800e6;
    /**
     * Per-thread throughput factor when both SMT siblings are busy.
     * 0.65 means two busy threads deliver 1.3 cores worth of cycles.
     */
    double smtEfficiency = 0.65;

    int logicalCpus() const { return cores * threadsPerCore; }
};

/**
 * The CPU model. Owns no processes; the router composes processes
 * and steps the model once per scheduling quantum.
 */
class CpuModel
{
  public:
    explicit CpuModel(CpuConfig config);

    const CpuConfig &config() const { return config_; }

    /**
     * Register a process. Pinned processes must name a valid logical
     * CPU. Processes must outlive the model.
     */
    void addProcess(SimProcess *process);

    /**
     * Run one scheduling quantum of @p quantum nanoseconds:
     * distributes the quantum's cycles over runnable processes by
     * priority and core placement.
     */
    void step(SimTime quantum);

    /**
     * Utilisation of the busiest logical CPU in the last quantum,
     * in [0, 1].
     */
    double lastQuantumPeakUtilisation() const { return peakUtil_; }

    /** Aggregate utilisation of all logical CPUs in the last quantum. */
    double lastQuantumTotalUtilisation() const { return totalUtil_; }

    /** Logical CPU a process last ran on (-1 if never placed). */
    int cpuOf(const SimProcess *process) const;

    /** True if any registered process has queued work. */
    bool anyRunnable() const;

  private:
    /** Assign runnable, unpinned processes to logical CPUs. */
    void place();

    CpuConfig config_;
    std::vector<SimProcess *> processes_;
    std::unordered_map<const SimProcess *, int> placement_;
    double peakUtil_ = 0.0;
    double totalUtil_ = 0.0;
};

} // namespace bgpbench::sim

#endif // BGPBENCH_SIM_CPU_HH
