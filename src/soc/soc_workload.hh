/**
 * @file
 * Workload adapter for IbexMini: program-visible behaviour is the MMIO
 * output trace plus the halt flag held in the behavioral memory, and the
 * architectural side state is the memory image (hashed incrementally).
 */

#ifndef DAVF_SOC_SOC_WORKLOAD_HH
#define DAVF_SOC_SOC_WORKLOAD_HH

#include "core/workload.hh"
#include "soc/ibex_mini.hh"
#include "util/logging.hh"

namespace davf {

/** Observes an IbexMini program through its behavioral memory. */
class SocWorkload : public Workload
{
  public:
    explicit SocWorkload(const IbexMini &soc, uint64_t max_cycles = 60000)
        : memCell(soc.netlist().findCell("mem")), maxCycles(max_cycles)
    {
        davf_assert(memCell != kInvalidId, "SoC has no memory cell");
    }

    bool
    done(const CycleSimulator &sim) const override
    {
        return memory(sim).halted();
    }

    std::vector<uint32_t>
    outputTrace(const CycleSimulator &sim) const override
    {
        return memory(sim).outputTrace();
    }

    uint64_t
    archHash(const CycleSimulator &sim) const override
    {
        return memory(sim).contentHash();
    }

    uint64_t maxGoldenCycles() const override { return maxCycles; }

    bool
    done(const VecSimulator &sim, unsigned lane) const override
    {
        return memory(sim, lane).halted();
    }

    std::vector<uint32_t>
    outputTrace(const VecSimulator &sim, unsigned lane) const override
    {
        return memory(sim, lane).outputTrace();
    }

    uint64_t
    archHash(const VecSimulator &sim, unsigned lane) const override
    {
        return memory(sim, lane).contentHash();
    }

    /** The simulator-private memory instance. */
    const MemoryModel &
    memory(const CycleSimulator &sim) const
    {
        return static_cast<const MemoryModel &>(sim.behavModel(memCell));
    }

    /** One lane's private memory instance. */
    const MemoryModel &
    memory(const VecSimulator &sim, unsigned lane) const
    {
        return static_cast<const MemoryModel &>(
            sim.behavModel(memCell, lane));
    }

  private:
    CellId memCell;
    uint64_t maxCycles;
};

} // namespace davf

#endif // DAVF_SOC_SOC_WORKLOAD_HH
