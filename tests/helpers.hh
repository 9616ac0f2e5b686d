/**
 * @file
 * Shared test fixtures: a seeded random sequential-circuit generator used
 * by the property tests (STA bounds, timed-vs-untimed equivalence, and
 * the two-step-vs-brute-force DelayACE exactness check).
 */

#ifndef DAVF_TESTS_HELPERS_HH
#define DAVF_TESTS_HELPERS_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "builder/builder.hh"
#include "core/vulnerability.hh"
#include "core/workload.hh"
#include "netlist/netlist.hh"
#include "tsim/timed_sim.hh"
#include "util/rng.hh"

namespace davf::test {

/** A randomly generated clocked circuit with an attached trace sink. */
struct RandomCircuit
{
    std::unique_ptr<Netlist> netlist;
    CellId sinkCell = kInvalidId;
    uint64_t numCycles = 0;

    /** Primary inputs, when requested (stimulus hooks for sim tests). */
    std::vector<NetId> inputs;

    /** Every flop state element, in netlist order (flip targets). */
    std::vector<StateElemId> flops;

    std::unique_ptr<TraceWorkload> workload;
};

/**
 * Build a random sequential circuit: @p num_flops flops with random
 * reset values, a random combinational cloud of @p num_gates primitive
 * gates (acyclic by construction), random flop feedback, and a trace
 * sink observing a random subset of nets every cycle. All cells carry the
 * prefix "rnd/" so the whole circuit can be treated as one structure.
 * With @p num_inputs > 0, that many primary inputs join the net pool the
 * gate cloud draws from, so tests can drive external stimulus.
 */
inline RandomCircuit
makeRandomCircuit(uint64_t seed, unsigned num_flops = 12,
                  unsigned num_gates = 60, uint64_t num_cycles = 24,
                  unsigned num_inputs = 0)
{
    Rng rng(seed);
    RandomCircuit circuit;
    circuit.netlist = std::make_unique<Netlist>();
    Netlist &nl = *circuit.netlist;
    ModuleBuilder b(nl);
    b.pushScope("rnd");

    // Flop Q nets come first; D inputs are connected at the end.
    std::vector<NetId> nets;
    Bus flop_d;
    for (unsigned i = 0; i < num_flops; ++i) {
        const NetId d = b.freshNet("ffd" + std::to_string(i));
        const NetId q = b.dff(d, rng.chance(0.5),
                              "ff" + std::to_string(i));
        flop_d.push_back(d);
        nets.push_back(q);
    }

    for (unsigned i = 0; i < num_inputs; ++i) {
        const NetId in = b.input("in" + std::to_string(i));
        circuit.inputs.push_back(in);
        nets.push_back(in);
    }

    // Random acyclic combinational cloud.
    const CellType kinds[] = {CellType::Buf,   CellType::Inv,
                              CellType::And2,  CellType::Or2,
                              CellType::Nand2, CellType::Nor2,
                              CellType::Xor2,  CellType::Xnor2,
                              CellType::Mux2};
    for (unsigned i = 0; i < num_gates; ++i) {
        const CellType kind = kinds[rng.below(std::size(kinds))];
        auto pick = [&]() { return nets[rng.below(nets.size())]; };
        NetId out;
        switch (cellNumInputs(kind)) {
          case 1:
            out = kind == CellType::Buf ? b.buf(pick()) : b.inv(pick());
            break;
          case 2: {
            const NetId a = pick();
            const NetId c = pick();
            switch (kind) {
              case CellType::And2:  out = b.and2(a, c); break;
              case CellType::Or2:   out = b.or2(a, c); break;
              case CellType::Nand2: out = b.nand2(a, c); break;
              case CellType::Nor2:  out = b.nor2(a, c); break;
              case CellType::Xor2:  out = b.xor2(a, c); break;
              default:              out = b.xnor2(a, c); break;
            }
            break;
          }
          default:
            out = b.mux(pick(), pick(), pick());
            break;
        }
        nets.push_back(out);
    }

    // Flop feedback from random nets.
    for (unsigned i = 0; i < num_flops; ++i)
        b.connect(flop_d[i], nets[rng.below(nets.size())]);

    // Trace sink observing a random subset of nets (always valid).
    const unsigned watch = 4;
    Bus sink_inputs;
    for (unsigned i = 0; i < watch; ++i)
        sink_inputs.push_back(nets[rng.below(nets.size())]);
    sink_inputs.push_back(b.constant(true));
    circuit.sinkCell = nl.addBehavioral(
        "rnd/sink", std::make_shared<TraceSinkModel>(watch), sink_inputs,
        {});

    b.popScope();
    nl.finalize();

    circuit.flops = nl.flopsByPrefix("rnd/");
    circuit.numCycles = num_cycles;
    circuit.workload = std::make_unique<TraceWorkload>(circuit.sinkCell,
                                                       num_cycles);
    return circuit;
}

/**
 * Reference for TimedSimulator::maxEndpointArrival(): the latest arrival
 * at any sampled endpoint pin, scanned from recorded waveforms as each
 * pin's last driver event plus its wire delay.
 */
inline double
scanEndpointArrival(const DelayModel &delays, const CycleWaveforms &wf)
{
    const Netlist &netlist = delays.netlist();
    double worst = 0.0;
    for (CellId id = 0; id < netlist.numCells(); ++id) {
        const Cell &cell = netlist.cell(id);
        const bool endpoint = cell.type == CellType::Dff
            || cell.type == CellType::Dffe || cell.type == CellType::Behav
            || cell.type == CellType::Output;
        if (!endpoint)
            continue;
        for (uint16_t pin = 0; pin < cell.inputs.size(); ++pin) {
            const auto &events = wf.netEvents[cell.inputs[pin]];
            if (events.empty())
                continue;
            const double arrive = events.back().time
                + delays.wireDelay(netlist.inputWire(id, pin));
            worst = std::max(worst, arrive);
        }
    }
    return worst;
}

/**
 * A deterministic, stateless AttributionTap for random circuits, which
 * run no instructions: the "instruction" in flight at cycle c is
 * "op<c % 3>" at pc 4 * (c % 3), and a divergence walk injected at c
 * reports the one in flight at c + 2 (or ends first). Thread-safe.
 */
class CycleAttributionTap : public AttributionTap
{
  public:
    static InFlight
    at(uint64_t cycle)
    {
        return {4 * (cycle % 3), "op" + std::to_string(cycle % 3)};
    }

    InFlight inFlight(uint64_t cycle) override { return at(cycle); }

    Walk
    beginWalk(uint64_t cycle) override
    {
        Walk walk;
        walk.cursor = cycle;
        return walk;
    }

    bool
    observe(Walk &walk, const CycleSimulator &sim) override
    {
        if (sim.cycle() < walk.cursor + 2)
            return false;
        const InFlight site = at(walk.cursor + 2);
        walk.found = true;
        walk.event.pc = site.pc;
        walk.event.mnemonic = site.mnemonic;
        walk.event.dest = "state";
        return true;
    }

    CycleAttribution::Event
    finish(Walk &walk, WalkEnd end) override
    {
        if (walk.found)
            return walk.event;
        const InFlight site = at(walk.cursor);
        CycleAttribution::Event event;
        event.pc = site.pc;
        event.mnemonic = site.mnemonic;
        event.dest = end == WalkEnd::Done ? "out" : "uarch";
        return event;
    }
};

} // namespace davf::test

#endif // DAVF_TESTS_HELPERS_HH
