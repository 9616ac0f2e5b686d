/**
 * @file
 * The shared design-under-analysis loader.
 *
 * Every front end that evaluates DelayAVF on IbexMini — the davf_run
 * CLI, the bench harnesses, the davf_serve query service and its
 * campaign workers — needs the same expensive setup: assemble the
 * benchmark, build the SoC netlist (with or without the ECC register
 * file), and run the golden capture. A Workspace performs that setup
 * exactly once from a small declarative spec, so the serve and CLI
 * paths cannot drift, and derives the **build fingerprint** that keys
 * the persistent result store: a hash over the finalized netlist
 * structure, the engine options, and the workload identity (benchmark
 * name, golden length, golden output). Two processes with equal
 * fingerprints compute bit-identical shard outcomes, which is the
 * store's cache-identity guarantee (docs/SERVICE.md).
 */

#ifndef DAVF_SERVICE_WORKSPACE_HH
#define DAVF_SERVICE_WORKSPACE_HH

#include <memory>
#include <string>

#include "analysis/attribution.hh"
#include "core/vulnerability.hh"
#include "soc/ibex_mini.hh"
#include "soc/soc_workload.hh"
#include "util/error.hh"

namespace davf::service {

/** Everything that identifies one buildable design + workload. */
struct WorkspaceSpec
{
    std::string benchmark = "libstrstr";

    /** Protect the register file with SEC ECC. */
    bool ecc = false;

    /**
     * Clock period source: STA longest path (the paper's setting) when
     * true, otherwise the observed-max timing-closure emulation that
     * davf_run and the bench harnesses default to.
     */
    bool staPeriod = false;

    bool operator==(const WorkspaceSpec &) const = default;
};

/**
 * How one process builds a Workspace. Unlike WorkspaceSpec these knobs
 * change no result byte, so they stay out of the fingerprint.
 */
struct WorkspaceOptions
{
    /** Threads of the batched timed golden pass (0 = all cores);
     *  the tools pass their --threads value. */
    unsigned threads = 0;

    /**
     * Measure the observed-max clock period at construction. When
     * false only the untimed golden pass runs (enough for the
     * fingerprint), and the caller must engine().adoptClockPeriod() or
     * engine().measureClockPeriod() before the period is read: a worker
     * handed its parent's period skips the timed pass.
     */
    bool measurePeriod = true;
};

/** Canonical one-line text form (protocol + cache key component). */
std::string serializeWorkspaceSpec(const WorkspaceSpec &spec);

/** Parse a serializeWorkspaceSpec() line; malformed input is an Err. */
Result<WorkspaceSpec> parseWorkspaceSpec(const std::string &text);

/**
 * Structural hash of a finalized netlist: cell types, names, reset
 * values, and full pin connectivity, plus the wire and state-element
 * counts. Equal hashes mean the injection-site index spaces (WireId,
 * StateElemId) and all simulation semantics coincide.
 */
uint64_t netlistHash(const Netlist &netlist);

/** One built SoC + golden-captured engine (see file comment). */
class Workspace
{
  public:
    /**
     * Assemble, build, and golden-run @p spec. Throws DavfError for an
     * unknown benchmark; panics if the golden output disagrees with
     * the benchmark's expected output (the build is then miscompiled —
     * an invariant, not an input error).
     */
    explicit Workspace(const WorkspaceSpec &spec,
                       const WorkspaceOptions &options = {});

    const WorkspaceSpec &spec() const { return wsSpec; }
    IbexMini &soc() { return *socPtr; }
    VulnerabilityEngine &engine() { return *enginePtr; }
    const StructureRegistry &structures() const
    {
        return socPtr->structures();
    }

    /** Structure by name; DavfError{NotFound} for an unknown name. */
    const Structure &structure(const std::string &name) const;

    /**
     * The build fingerprint (see file comment). Stable across
     * processes and runs; changes whenever the netlist, the engine
     * options, or the workload change.
     */
    const std::string &fingerprint() const { return fp; }

    /**
     * The ISS/gate lockstep attribution tap, pre-installed on the
     * engine. Construction is free (its lockstep tables build lazily on
     * the first attribution query), so every workspace carries one;
     * nothing runs unless a SamplingConfig sets the attribution flag.
     * Note the tap is deliberately *outside* the fingerprint: the
     * attribution knob keys results through the shard-spec grammar
     * instead, so attribution-off store keys match earlier releases.
     */
    analysis::SocAttribution &attribution() { return *attrPtr; }

  private:
    WorkspaceSpec wsSpec;
    std::unique_ptr<IbexMini> socPtr;
    std::unique_ptr<SocWorkload> workloadPtr;
    std::unique_ptr<VulnerabilityEngine> enginePtr;
    std::unique_ptr<analysis::SocAttribution> attrPtr;
    std::string fp;
};

} // namespace davf::service

#endif // DAVF_SERVICE_WORKSPACE_HH
