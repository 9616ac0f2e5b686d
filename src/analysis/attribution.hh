/**
 * @file
 * The ISS/gate lockstep attribution tap (SamplingConfig::attribution).
 *
 * Maps gate-level cycles of an IbexMini golden run onto the RV32I ISS
 * instruction trajectory, so the vulnerability engine can tag every
 * injection cycle with the instruction in flight and walk each DelayACE
 * continuation forward to the *first architecturally corrupted
 * instruction* (docs/ANALYSIS.md).
 *
 * Preparation (lazy, once, thread-safe) builds two read-only tables:
 *
 *  1. The **ISS trajectory** S_0..S_n: after each instruction, the
 *     architectural signature (x1..x31, the RAM content hash of
 *     soc/memory.hh, and the output-trace length) plus the executed
 *     instruction's PC and disassembly.
 *  2. The **alignment** r[c] for every golden gate cycle c: the largest
 *     k such that the gate's architectural signature at cycle c matches
 *     S_k. It is computed by replaying the golden gate run once and
 *     eagerly advancing the cursor while the next state matches, so
 *     instructions invisible in the signature (branches, stores to the
 *     halt port) are skipped consistently; a gate state matching no
 *     trajectory state is a broken lockstep and throws
 *     DavfError{Internal}.
 *
 * A divergence walk starts at cursor r[cycle] and tracks a *faulty*
 * continuation with the same advance rule; the first gate state whose
 * signature matches neither S_cursor nor S_{cursor+1} names the first
 * corrupted instruction I_cursor, and the corrupted destination is the
 * first component disagreeing with both states ("x<n>", then "mem",
 * then "out", else "state"). Walks that never deviate resolve through
 * AttributionTap::WalkEnd (completion -> "out"/"uarch", watchdog ->
 * "uarch"). Everything is a pure function of (cycle, observed state),
 * so attribution tables are bit-identical across thread counts,
 * isolation modes, and reruns over a result store.
 */

#ifndef DAVF_ANALYSIS_ATTRIBUTION_HH
#define DAVF_ANALYSIS_ATTRIBUTION_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/vulnerability.hh"
#include "soc/ibex_mini.hh"
#include "soc/soc_workload.hh"

namespace davf::analysis {

/** The IbexMini/ISS lockstep attribution tap (see file comment). */
class SocAttribution : public AttributionTap
{
  public:
    /**
     * @param soc      the built SoC (netlist + register accessors).
     * @param workload its workload adapter (memory observation).
     * @param image    the program image the golden run executes.
     * All three must outlive the tap; nothing runs until the engine's
     * first attribution query (construction is free).
     */
    SocAttribution(const IbexMini &soc, const SocWorkload &workload,
                   std::vector<uint32_t> image);

    InFlight inFlight(uint64_t cycle) override;
    Walk beginWalk(uint64_t cycle) override;
    bool observe(Walk &walk, const CycleSimulator &sim) override;
    CycleAttribution::Event finish(Walk &walk, WalkEnd end) override;

    /** Trajectory length n (instructions executed); prepares. */
    uint64_t trajectoryLength();

  private:
    /** One trajectory state's architectural signature. */
    struct ArchState
    {
        std::array<uint32_t, 32> regs{};
        uint64_t memHash = 0;
        uint32_t outLen = 0;
    };

    /** The gate simulator's signature, observed on demand. */
    struct GateView
    {
        std::array<uint32_t, 32> regs{};
        uint64_t memHash = 0;
        const std::vector<uint32_t> *out = nullptr;
    };

    void prepare();
    void prepared();
    void readGate(const CycleSimulator &sim, GateView &view) const;
    bool matches(const GateView &view, size_t state) const;
    CycleAttribution::Event deviationEvent(const GateView &view,
                                           uint64_t cursor) const;

    const IbexMini *soc;
    const SocWorkload *workload;
    std::vector<uint32_t> image;

    std::once_flag once;

    /** @name Read-only after prepare() */
    /// @{
    std::vector<ArchState> states;    ///< S_0..S_n.
    std::vector<uint32_t> instrPc;    ///< PC of I_0..I_{n-1}.
    std::vector<std::string> instrText; ///< Disassembly of I_k.
    std::vector<uint32_t> issOut;     ///< Full golden output trace.
    std::vector<uint64_t> align;      ///< r[c] for c = 0..goldenN.
    /// @}
};

} // namespace davf::analysis

#endif // DAVF_ANALYSIS_ATTRIBUTION_HH
