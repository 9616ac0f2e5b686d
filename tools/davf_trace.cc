/**
 * @file
 * Fault-trace dumper: replay one SDF injection on the IbexMini core and
 * write golden and faulty VCD waveforms of the affected state elements
 * (plus any requested nets) for side-by-side inspection in GTKWave.
 *
 * Usage:
 *   davf_trace [options]
 *     --benchmark NAME   workload (default libstrstr)
 *     --ecc              protect the register file with SEC ECC
 *     --sta-period       use the STA longest path as the clock
 *     --structure NAME   structure whose wires to scan (default ALU)
 *     --cycle N          injection cycle (default: golden middle)
 *     --d FRACTION       SDF duration as a fraction of the period
 *                        (default 0.6)
 *     --wire INDEX       wire index within the structure (default:
 *                        first wire with a non-empty error set)
 *     --tail N           cycles to dump after the injection (default 40)
 *     --out PREFIX       output files PREFIX.golden.vcd and
 *                        PREFIX.faulty.vcd (default davf_trace)
 *
 * The design is built through the shared workspace loader
 * (service/workspace.hh), exactly as davf_run builds it.
 */

#include <climits>
#include <cstdio>
#include <string>

#include "core/vulnerability.hh"
#include "service/cli.hh"
#include "service/workspace.hh"
#include "sim/vcd.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace davf;

namespace {

int
runTool(int argc, char **argv)
{
    service::WorkspaceSpec workspace_spec;
    std::string structure_name = "ALU";
    std::string prefix = "davf_trace";
    uint64_t cycle = 0;
    double fraction = 0.6;
    long wire_index = -1;
    uint64_t tail = 40;

    try {
        for (int i = 1; i < argc; ++i) {
            if (service::parseWorkspaceFlag(argc, argv, i, workspace_spec))
                continue;
            const std::string arg = argv[i];
            auto need = [&] { return service::flagValue(argc, argv, i); };
            if (arg == "--structure")
                structure_name = need();
            else if (arg == "--cycle")
                cycle = parseU64Strict(need(), arg);
            else if (arg == "--d")
                fraction = parseDoubleStrict(need(), arg);
            else if (arg == "--wire")
                wire_index = static_cast<long>(
                    parseU64InRange(need(), arg, 0, LONG_MAX));
            else if (arg == "--tail")
                tail = parseU64Strict(need(), arg);
            else if (arg == "--out")
                prefix = need();
            else {
                std::fprintf(stderr, "unknown option %s\n", arg.c_str());
                return 2;
            }
        }
    } catch (const DavfError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
    }
    if (fraction < 0.0 || fraction > 1.0) {
        std::fprintf(stderr, "--d must lie in [0, 1], got %g\n", fraction);
        return 2;
    }

    service::Workspace workspace(workspace_spec);
    const Netlist &netlist = workspace.soc().netlist();
    VulnerabilityEngine &engine = workspace.engine();
    const Structure *structure =
        workspace.structures().find(structure_name);
    if (!structure) {
        std::fprintf(stderr, "unknown structure %s\n",
                     structure_name.c_str());
        return 2;
    }
    if (cycle == 0)
        cycle = engine.goldenCycles() / 2;
    const double d = fraction * engine.clockPeriod();

    // Pick the injection: requested wire, or scan for the first one
    // with a non-empty dynamically reachable set.
    std::vector<CycleSimulator::Force> errors;
    WireId wire = kInvalidId;
    if (wire_index >= 0) {
        wire = structure->wires.at(static_cast<size_t>(wire_index));
        errors = engine.dynamicErrors(wire, cycle, d);
    } else {
        for (size_t i = 0; i < structure->wires.size(); ++i) {
            errors = engine.dynamicErrors(structure->wires[i], cycle, d);
            if (!errors.empty()) {
                wire = structure->wires[i];
                break;
            }
        }
        if (wire == kInvalidId) {
            std::fprintf(stderr,
                         "no erroneous injection found in %s at cycle "
                         "%llu, d=%.2f — try another cycle/d\n",
                         structure_name.c_str(),
                         static_cast<unsigned long long>(cycle),
                         fraction);
            return 1;
        }
    }

    std::printf("injection: wire '%s', cycle %llu, d = %.1f ps "
                "(%.0f%% of %.1f ps)\n",
                netlist.wireName(wire).c_str(),
                static_cast<unsigned long long>(cycle), d,
                100 * fraction, engine.clockPeriod());
    std::printf("dynamically reachable set (%zu):\n", errors.size());
    for (const auto &[elem, value] : errors) {
        std::printf("  %s <- %d\n",
                    netlist.stateElemName(elem).c_str(),
                    value ? 1 : 0);
    }
    const FailureKind verdict = engine.groupVerdict(errors, cycle);
    std::printf("verdict: %s\n",
                verdict == FailureKind::None ? "masked (not DelayACE)"
                : verdict == FailureKind::Sdc
                    ? "silent data corruption"
                    : "detected unrecoverable error");

    // Nets to trace: the wronged state elements' cells' outputs plus
    // the faulted wire's net.
    std::vector<NetId> nets;
    nets.push_back(netlist.wire(wire).net);
    for (const auto &[elem, value] : errors) {
        const StateElem &state_elem = netlist.stateElem(elem);
        const Cell &cell = netlist.cell(state_elem.cell);
        for (NetId out : cell.outputs)
            nets.push_back(out);
        if (state_elem.kind == StateElemKind::BehavInput)
            nets.push_back(cell.inputs[state_elem.pin]);
    }

    // Golden trace.
    {
        CycleSimulator sim(netlist);
        VcdWriter vcd(netlist, nets);
        for (uint64_t i = 0; i <= cycle + tail; ++i) {
            vcd.sample(sim);
            sim.step();
        }
        vcd.writeTo(prefix + ".golden.vcd", "golden");
    }
    // Faulty trace: identical prefix, forced errors at the edge.
    {
        CycleSimulator sim(netlist);
        VcdWriter vcd(netlist, nets);
        for (uint64_t i = 0; i < cycle; ++i) {
            vcd.sample(sim);
            sim.step();
        }
        vcd.sample(sim);
        sim.step(errors);
        for (uint64_t i = 0; i < tail; ++i) {
            vcd.sample(sim);
            sim.step();
        }
        vcd.writeTo(prefix + ".faulty.vcd", "faulty");
    }
    std::printf("wrote %s.golden.vcd and %s.faulty.vcd (%zu nets)\n",
                prefix.c_str(), prefix.c_str(), nets.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] { return runTool(argc, argv); });
}
