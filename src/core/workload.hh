/**
 * @file
 * Workload abstraction: what "program-visible behaviour" means.
 *
 * DelayAVF's GroupACE step (§V-B) declares a set of state element errors
 * ACE when the program's *output* deviates from the fault-free run. A
 * Workload tells the vulnerability engine how to observe a running
 * simulation: when the program is done, what it has output so far, and a
 * cheap hash of any architectural state held inside behavioral blocks
 * (used for the engine's exact early-exit convergence check).
 *
 * Two implementations ship with the library: SocWorkload (soc/ — MMIO
 * output trace + halt flag of the IbexMini memory) and TraceWorkload
 * (below — a generic trace-sink block for bare test circuits).
 */

#ifndef DAVF_CORE_WORKLOAD_HH
#define DAVF_CORE_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "netlist/behavioral.hh"
#include "sim/cycle_sim.hh"
#include "sim/vec_sim.hh"

namespace davf {

/** How the engine observes program-visible behaviour. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** True when the program has finished (e.g. wrote the halt port). */
    virtual bool done(const CycleSimulator &sim) const = 0;

    /** The program output emitted so far, in order. */
    virtual std::vector<uint32_t>
    outputTrace(const CycleSimulator &sim) const = 0;

    /**
     * Hash of architectural state stored inside behavioral blocks (e.g.
     * memory contents). Net-level state is compared separately by the
     * engine; return 0 if all state is in flops.
     */
    virtual uint64_t archHash(const CycleSimulator &) const { return 0; }

    /** Upper bound on golden-run length (fatal if exceeded). */
    virtual uint64_t maxGoldenCycles() const { return 1u << 20; }

    /**
     * @name Per-lane observation (the engine's bit-parallel path)
     *
     * The same three observations, applied to one lane of a
     * VecSimulator (via the lane's private behavioral clones). The
     * engine runs every faulty continuation in lane batches, so every
     * workload implements them.
     */
    /// @{

    /** Per-lane done(). */
    virtual bool done(const VecSimulator &sim, unsigned lane) const = 0;

    /** Per-lane outputTrace(). */
    virtual std::vector<uint32_t>
    outputTrace(const VecSimulator &sim, unsigned lane) const = 0;

    /** Per-lane archHash(); 0 if all state is in flops. */
    virtual uint64_t archHash(const VecSimulator &, unsigned) const
    {
        return 0;
    }

    /// @}
};

/**
 * A generic trace-recording behavioral block for test circuits: every
 * cycle in which `valid` (the last input pin) is high, the other input
 * pins are recorded as one little-endian word. No outputs.
 */
class TraceSinkModel : public BehavioralModel
{
  public:
    /** @param data_bits number of recorded data pins (<= 32). */
    explicit TraceSinkModel(unsigned data_bits);

    std::shared_ptr<BehavioralModel> clone() const override
    {
        return std::make_shared<TraceSinkModel>(*this);
    }

    unsigned numInputs() const override { return dataBits + 1; }
    unsigned numOutputs() const override { return 0; }
    void reset(std::vector<bool> &outputs) override;
    void clockEdge(const std::vector<bool> &inputs,
                   std::vector<bool> &outputs) override;
    std::vector<uint64_t> snapshot() const override;
    void restore(const std::vector<uint64_t> &data) override;

    const std::vector<uint32_t> &trace() const { return log; }

  private:
    unsigned dataBits;
    std::vector<uint32_t> log;
};

/**
 * Workload over a circuit whose output is a TraceSinkModel: the program
 * "output" is the recorded trace and the run is done after a fixed
 * number of cycles.
 */
class TraceWorkload : public Workload
{
  public:
    /**
     * @param sink_cell  the TraceSinkModel's cell in the netlist.
     * @param num_cycles fixed run length.
     */
    TraceWorkload(CellId sink_cell, uint64_t num_cycles)
        : sinkCell(sink_cell), numCycles(num_cycles)
    {}

    bool
    done(const CycleSimulator &sim) const override
    {
        return sim.cycle() >= numCycles;
    }

    std::vector<uint32_t>
    outputTrace(const CycleSimulator &sim) const override;

    uint64_t maxGoldenCycles() const override { return numCycles + 1; }

    bool
    done(const VecSimulator &sim, unsigned) const override
    {
        return sim.cycle() >= numCycles;
    }

    std::vector<uint32_t>
    outputTrace(const VecSimulator &sim, unsigned lane) const override;

  private:
    CellId sinkCell;
    uint64_t numCycles;
};

} // namespace davf

#endif // DAVF_CORE_WORKLOAD_HH
